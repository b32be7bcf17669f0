/**
 * @file
 * The command-line skeleton the dse_* tools share. A tool binds each
 * `--name` or `--name=value` flag to the variable it sets, then hands
 * its body to Command::run(), which parses argv and maps every
 * failure to one stderr line and an exit code: 0 ok, 1 bad usage,
 * 2 invalid input, 3 runtime or I/O failure, 4 internal. A number
 * must parse whole and fit its variable's type: `--port=70000` is bad
 * usage, not port 4464.
 */

#ifndef DSE_TOOLS_CLI_HH
#define DSE_TOOLS_CLI_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "study/spaces.hh"
#include "util/fault.hh"
#include "util/metrics.hh"

namespace dse {
namespace cli {

/** A malformed command line: the tool prints its usage and exits 1. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The study a `--study` value names. */
inline study::StudyKind
parseStudy(std::string_view name)
{
    if (name == "memory" || name == "memory-system")
        return study::StudyKind::MemorySystem;
    if (name == "processor")
        return study::StudyKind::Processor;
    throw UsageError("unknown study '" + std::string(name) +
                     "' (memory, memory-system or processor)");
}

/** @p text as a T: the whole text, finite, and inside T's range. */
template <typename T>
T
parseNumber(std::string_view flag, std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (!text.empty() && ec == std::errc() && stop == end &&
        std::isfinite(static_cast<double>(value)))
        return value;
    std::string want = "a number";
    if constexpr (std::is_integral_v<T>)
        want = "an integer in [" +
            std::to_string(std::numeric_limits<T>::min()) + ", " +
            std::to_string(std::numeric_limits<T>::max()) + "]";
    throw UsageError(std::string(flag) + ": '" + std::string(text) +
                     "' is not " + want);
}

/** Store a flag's value by the type of @p out: text, a number, a
 *  study; a std::optional records that the flag was given, and a
 *  std::vector collects a repeated flag. */
template <typename T>
void
parseInto(std::string_view flag, std::string_view text, T &out)
{
    if constexpr (std::is_same_v<T, std::string>)
        out = text;
    else if constexpr (std::is_same_v<T, study::StudyKind>)
        out = parseStudy(text);
    else if constexpr (std::is_arithmetic_v<T>)
        out = parseNumber<T>(flag, text);
    else if constexpr (requires { out.emplace_back(); })
        parseInto(flag, text, out.emplace_back());
    else
        parseInto(flag, text, out.emplace());
}

/** `--metrics[=path]`: dse::obs collection starts when the flag is
 *  parsed; report() prints a table, or writes JSON to the path. */
struct Metrics
{
    bool on = false;
    std::string path;

    void
    report() const
    {
        if (on)
            obs::reportGlobalMetrics(path);
    }
};

/** One tool's flags, usage text and exit-code contract. */
class Command
{
  public:
    /** @p usage is printed, followed by the exit codes, for --help
     *  (stdout) and for bad usage (stderr). */
    Command(const char *name, const char *usage)
        : name_(name), usage_(usage)
    {}

    /** `--name` sets @p out. */
    Command &
    flag(const char *name, bool &out)
    {
        specs_.push_back({name, true, false,
                          [&out](std::string_view) { out = true; }});
        return *this;
    }

    /** `--name=value`, stored by parseInto(). */
    template <typename T>
    Command &
    value(const char *name, T &out)
    {
        specs_.push_back({name, false, true,
                          [name, &out](std::string_view text) {
                              parseInto(name, text, out);
                          }});
        return *this;
    }

    Command &
    metrics(Metrics &out)
    {
        specs_.push_back({"--metrics", true, true,
                          [&out](std::string_view path) {
                              out.on = true;
                              out.path = path;
                              obs::setMetricsEnabled(true);
                          }});
        return *this;
    }

    /** Collect the arguments that are not flags (otherwise bad
     *  usage). */
    Command &
    operands(std::vector<std::string> &out)
    {
        operands_ = &out;
        return *this;
    }

    /**
     * Parse @p argv and read DSE_FAULTS, then return what @p body
     * returns; --help or -h prints the usage and returns 0 instead. A
     * failure prints one line and returns 1 for a UsageError, 2 for
     * std::invalid_argument (a malformed DSE_FAULTS among them, so it
     * is refused before the body does any work), 3 for any other
     * std::exception and 4 for anything else.
     */
    int
    run(int argc, char **argv, const std::function<int()> &body) const
    {
        try {
            if (!parse(argc, argv)) {
                printUsage(stdout);
                return 0;
            }
            util::FaultInjector::global();
            return body();
        } catch (const UsageError &e) {
            std::fprintf(stderr, "%s: %s\n", name_, e.what());
            printUsage(stderr);
            return 1;
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "%s: invalid input: %s\n", name_,
                         e.what());
            return 2;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: error: %s\n", name_, e.what());
            return 3;
        } catch (...) {
            std::fprintf(stderr, "%s: unknown fatal error\n", name_);
            return 4;
        }
    }

  private:
    struct Spec
    {
        std::string_view name;
        bool bare;    ///< accepts `--name`
        bool valued;  ///< accepts `--name=value`
        std::function<void(std::string_view)> set;
    };

    /** False when the usage was asked for. */
    bool
    parse(int argc, char **argv) const
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h")
                return false;
            if (arg.rfind("--", 0) != 0) {
                if (!operands_)
                    throw UsageError("unexpected argument '" + arg + "'");
                operands_->push_back(arg);
                continue;
            }
            const size_t eq = arg.find('=');
            const std::string name = arg.substr(0, eq);
            const auto spec =
                std::find_if(specs_.begin(), specs_.end(),
                             [&](const Spec &s) { return s.name == name; });
            if (spec == specs_.end())
                throw UsageError("unknown option '" + arg + "'");
            if (eq == std::string::npos && !spec->bare)
                throw UsageError(name + " needs a value: " + name +
                                 "=<value>");
            if (eq != std::string::npos && !spec->valued)
                throw UsageError(name + " takes no value");
            spec->set(eq == std::string::npos ? "" : arg.substr(eq + 1));
        }
        return true;
    }

    void
    printUsage(FILE *out) const
    {
        std::fprintf(out,
                     "%s\nexit codes: 0 ok, 1 bad usage, 2 invalid input, "
                     "3 runtime or I/O\nfailure, 4 internal\n",
                     usage_);
    }

    const char *name_;
    const char *usage_;
    std::vector<Spec> specs_;
    std::vector<std::string> *operands_ = nullptr;
};

} // namespace cli
} // namespace dse

#endif // DSE_TOOLS_CLI_HH
