/**
 * @file
 * The one byte layer under every format this library writes: the
 * simulation journal (study/journal.hh), the serve wire protocol
 * (serve/protocol.hh) and model files (ml/io.hh). DESIGN.md "Byte
 * formats" lists the formats and the tests that pin their bytes.
 *
 * All integers are little-endian, the only byte order this library
 * targets. Doubles travel as their IEEE-754 bit pattern in a u64, so a
 * value read back is the exact double written, -0.0 and NaN payloads
 * included.
 */

#ifndef DSE_UTIL_BYTES_HH
#define DSE_UTIL_BYTES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dse {
namespace util {

/**
 * FNV-1a 64 over a byte range: the checksum of every format. Its
 * offset basis (bytes.cc) is not the published FNV value; every file
 * and peer written so far depends on it, so it stays.
 */
uint64_t fnv1a64(const void *data, size_t n);

/**
 * Little-endian serializer. Appending never fails; the buffer grows as
 * needed.
 */
class WireWriter
{
  public:
    void u8(uint8_t v) { le(v); }
    void u16(uint16_t v) { le(v); }
    void u32(uint32_t v) { le(v); }
    void u64(uint64_t v) { le(v); }
    void f64(double v) { le(std::bit_cast<uint64_t>(v)); }
    /** u32 length prefix + raw bytes. */
    void str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf_.append(s);
    }
    /** Raw bytes, no prefix (pre-counted arrays). */
    void raw(const void *data, size_t n)
    {
        buf_.append(static_cast<const char *>(data), n);
    }
    void reserve(size_t n) { buf_.reserve(n); }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    /** Append @p v least significant byte first. */
    template <typename T>
    void
    le(T v)
    {
        char out[sizeof(T)];
        for (size_t i = 0; i < sizeof(T); ++i)
            out[i] = static_cast<char>(static_cast<uint64_t>(v) >> (8 * i));
        buf_.append(out, sizeof(T));
    }

    std::string buf_;
};

/**
 * Bounds-checked little-endian parser. A read past the end (or a
 * length prefix pointing outside the buffer) latches the fail flag and
 * returns zeros/empties; callers check ok() once at the end instead of
 * guarding every field, so hostile bytes can never read out of bounds
 * or throw from the parse path.
 */
class WireReader
{
  public:
    WireReader(const void *data, size_t n)
        : p_(static_cast<const char *>(data)), n_(n)
    {}
    explicit WireReader(std::string_view s) : WireReader(s.data(), s.size()) {}

    uint8_t u8() { return le<uint8_t>(); }
    uint16_t u16() { return le<uint16_t>(); }
    uint32_t u32() { return le<uint32_t>(); }
    uint64_t u64() { return le<uint64_t>(); }
    double f64() { return std::bit_cast<double>(le<uint64_t>()); }
    std::string str();

    /** True iff no read ever ran past the end. */
    bool ok() const { return ok_; }
    /** True iff the whole buffer was consumed (and ok()). */
    bool atEnd() const { return ok_ && off_ == n_; }
    size_t remaining() const { return ok_ ? n_ - off_ : 0; }

  private:
    /** Claim the next @p n bytes; false (and latched) past the end. */
    bool take(size_t n, const char **out);
    /** Read a T stored least significant byte first (0 past the end). */
    template <typename T>
    T
    le()
    {
        const char *p;
        if (!take(sizeof(T), &p))
            return 0;
        uint64_t v = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
                << (8 * i);
        return static_cast<T>(v);
    }

    const char *p_;
    size_t n_;
    size_t off_ = 0;
    bool ok_ = true;
};

/**
 * Write all @p n bytes to @p fd, retrying on EINTR and short writes.
 * @throws std::runtime_error "write failed: <path>: <reason>"
 */
void writeAll(int fd, const void *data, size_t n, const std::string &path);

} // namespace util
} // namespace dse

#endif // DSE_UTIL_BYTES_HH
