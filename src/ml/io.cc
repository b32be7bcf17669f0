#include "ml/io.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "util/bytes.hh"
#include "util/fault.hh"

namespace dse {
namespace ml {

namespace {

constexpr const char *kMagic = "dse-ensemble";
constexpr int kVersion = 1;
constexpr const char *kChecksumTag = "checksum";

void
expectToken(std::istream &is, const std::string &expected)
{
    std::string token;
    if (!(is >> token) || token != expected) {
        throw std::runtime_error("ensemble file: expected '" + expected +
                                 "', got '" + token + "'");
    }
}

} // namespace

void
saveEnsemble(std::ostream &os, const Ensemble &model)
{
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << kMagic << ' ' << kVersion << '\n';

    // All members share topology/hyper-parameters; take member 0's.
    // (predictMember forces a forward pass; we only need structure,
    // which we recover from the weights() size and the stored params
    // below, so serialize the params explicitly.)
    os << "members " << model.members() << '\n';

    const TargetScaler &sc = model.scaler();
    os << "scaler " << sc.rawMin() << ' ' << sc.rawMax() << ' '
       << sc.lo() << ' ' << sc.hi() << '\n';
    os << "estimate " << model.estimate().meanPct << ' '
       << model.estimate().sdPct << '\n';
    os << "net-meta " << model.netMeta().inputs << ' '
       << model.netMeta().outputs << ' '
       << model.netMeta().params.hiddenUnits << ' '
       << model.netMeta().params.hiddenLayers << ' '
       << model.netMeta().params.learningRate << ' '
       << model.netMeta().params.momentum << ' '
       << model.netMeta().params.initWeightRange << ' '
       << model.netMeta().params.decayEpochs << '\n';

    for (size_t m = 0; m < model.members(); ++m) {
        const auto w = model.memberWeights(m);
        os << "net " << m << ' ' << w.size() << '\n';
        for (size_t i = 0; i < w.size(); ++i)
            os << w[i] << (i + 1 == w.size() ? '\n' : ' ');
    }
}

void
saveEnsemble(const std::string &path, const Ensemble &model)
{
    // Serialize fully in memory, then append a whole-file checksum
    // trailer that loadEnsemble(path) verifies: any torn or bit-rotted
    // on-disk copy is detected at load, not at predict time.
    std::ostringstream body;
    saveEnsemble(body, model);
    std::string bytes = body.str();
    if (!body)
        throw std::runtime_error("ensemble serialization failed");
    {
        std::ostringstream trailer;
        trailer << kChecksumTag << ' ' << std::hex << std::setw(16)
                << std::setfill('0')
                << util::fnv1a64(bytes.data(), bytes.size()) << '\n';
        bytes += trailer.str();
    }

    if (util::FaultInjector::global().shouldFail("save")) {
        // Injected torn write: leave half the payload at the *final*
        // path — the wreckage a non-atomic writer (or a disk pulled
        // mid-write) leaves behind — so tests can prove the loader
        // rejects it.
        std::ofstream torn(path, std::ios::binary | std::ios::trunc);
        torn.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size() / 2));
        torn.flush();
        throw std::runtime_error("injected fault: saveEnsemble(" + path +
                                 ") torn write");
    }

    // Atomic publish: temp file in the same directory, fsync, rename.
    // Readers of `path` see either the old complete file or the new
    // complete file, never a partial write.
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        throw std::runtime_error("cannot open for writing: " + tmp +
                                 ": " + std::strerror(errno));
    }
    try {
        util::writeAll(fd, bytes.data(), bytes.size(), tmp);
        if (::fsync(fd) != 0) {
            throw std::runtime_error("fsync failed: " + tmp + ": " +
                                     std::strerror(errno));
        }
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw std::runtime_error("rename failed: " + tmp + " -> " + path +
                                 ": " + std::strerror(err));
    }
}

Ensemble
loadEnsemble(std::istream &is)
{
    expectToken(is, kMagic);
    int version = 0;
    if (!(is >> version) || version != kVersion) {
        throw std::runtime_error(
            "unsupported ensemble file version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(kVersion) + ")");
    }

    expectToken(is, "members");
    size_t members = 0;
    is >> members;
    if (!is || members == 0 || members > 1000)
        throw std::runtime_error("bad member count");

    expectToken(is, "scaler");
    double raw_min, raw_max, lo, hi;
    if (!(is >> raw_min >> raw_max >> lo >> hi))
        throw std::runtime_error("bad scaler");
    const auto scaler = TargetScaler::fromRange(raw_min, raw_max, lo, hi);

    expectToken(is, "estimate");
    ErrorEstimate estimate;
    if (!(is >> estimate.meanPct >> estimate.sdPct))
        throw std::runtime_error("bad estimate");

    expectToken(is, "net-meta");
    int inputs, outputs;
    AnnParams params;
    if (!(is >> inputs >> outputs >> params.hiddenUnits >>
          params.hiddenLayers >> params.learningRate >>
          params.momentum >> params.initWeightRange >>
          params.decayEpochs)) {
        throw std::runtime_error("bad network metadata");
    }
    // Bound the topology before Ann's constructor sizes its arenas
    // from it: an adversarial header must not drive a huge (or
    // overflowing) allocation.
    if (inputs <= 0 || inputs > 4096 || outputs <= 0 || outputs > 4096 ||
        params.hiddenUnits <= 0 || params.hiddenUnits > 4096 ||
        params.hiddenLayers <= 0 || params.hiddenLayers > 64) {
        throw std::runtime_error("implausible network metadata");
    }

    Rng rng(0);  // placeholder init; weights overwritten below
    std::vector<Ann> nets;
    nets.reserve(members);
    for (size_t m = 0; m < members; ++m) {
        expectToken(is, "net");
        size_t index = 0, count = 0;
        if (!(is >> index >> count) || index != m)
            throw std::runtime_error("bad net header");
        Ann net(inputs, outputs, params, rng);
        if (count != net.weightCount())
            throw std::runtime_error("weight count mismatch");
        std::vector<double> w(count);
        for (double &x : w) {
            if (!(is >> x))
                throw std::runtime_error("truncated weights");
        }
        net.setWeights(w);
        nets.push_back(std::move(net));
    }
    return Ensemble(std::move(nets), scaler, estimate);
}

Ensemble
loadEnsemble(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot open for reading: " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string bytes = buf.str();
    if (bytes.empty())
        throw std::runtime_error("ensemble file is empty: " + path);

    // The checksum trailer is the last line: "checksum <16 hex>\n".
    // Its absence means the writer never finished (torn/truncated
    // file); a mismatch means the bytes changed after the writer
    // finished (corruption). Keep the two failure modes distinct —
    // they call for different operator responses.
    const size_t tag_at = bytes.rfind(std::string(kChecksumTag) + " ");
    if (tag_at == std::string::npos ||
        (tag_at != 0 && bytes[tag_at - 1] != '\n')) {
        throw std::runtime_error(
            "ensemble file truncated (missing checksum trailer): " +
            path);
    }
    std::istringstream trailer(bytes.substr(tag_at));
    std::string tag;
    uint64_t stored = 0;
    if (!(trailer >> tag >> std::hex >> stored)) {
        throw std::runtime_error(
            "ensemble file truncated (unreadable checksum trailer): " +
            path);
    }
    if (util::fnv1a64(bytes.data(), tag_at) != stored) {
        throw std::runtime_error(
            "ensemble file corrupt (checksum mismatch): " + path);
    }

    std::istringstream body(bytes.substr(0, tag_at));
    return loadEnsemble(body);
}

} // namespace ml
} // namespace dse
