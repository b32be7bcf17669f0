#include "util/bytes.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <unistd.h>

namespace dse {
namespace util {

uint64_t
fnv1a64(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

// ---------------------------------------------------------------- reader

bool
WireReader::take(size_t n, const char **out)
{
    if (!ok_ || n > n_ - off_) {
        ok_ = false;
        return false;
    }
    *out = p_ + off_;
    off_ += n;
    return true;
}

std::string
WireReader::str()
{
    const uint32_t n = u32();
    const char *p;
    if (!take(n, &p))
        return {};
    return std::string(p, n);
}

// ---------------------------------------------------------------- files

void
writeAll(int fd, const void *data, size_t n, const std::string &path)
{
    const auto *p = static_cast<const char *>(data);
    size_t done = 0;
    while (done < n) {
        const ssize_t w = ::write(fd, p + done, n - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("write failed: " + path + ": " +
                                     std::strerror(errno));
        }
        done += static_cast<size_t>(w);
    }
}

} // namespace util
} // namespace dse
