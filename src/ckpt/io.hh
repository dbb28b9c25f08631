/**
 * @file
 * Byte-level serialization primitives for checkpoints.
 *
 * Writer appends fixed-width little-endian encodings into a byte
 * buffer; Reader decodes the same stream with bounds-checked,
 * sticky-failure reads: the first out-of-bounds read latches a
 * failure flag, every subsequent read returns a zero value, and
 * finish() converts the latched state into a typed Error. That keeps
 * per-field restore code linear (no Result plumbing per integer)
 * while guaranteeing a truncated or length-corrupted payload can
 * never index out of bounds — rejection instead of UB (DESIGN.md
 * §14).
 *
 * Encoding rules:
 *  - integers: little-endian, fixed width (u8/u32/u64), written and
 *    read with one memcpy per field on little-endian hosts (a byte
 *    loop on others; the bytes are the same);
 *  - doubles: exact IEEE-754 bit pattern as u64 (bit-identical
 *    round-trip, the determinism guarantee needs nothing less);
 *  - bools: one byte, 0 or 1;
 *  - strings / byte runs: u64 length prefix, then raw bytes;
 *  - containers: callers write a u64 element count, then elements —
 *    unordered containers must be serialized in sorted key order
 *    (same rule as fingerprinting; see DESIGN.md §14).
 */

#ifndef CKPT_IO_HH
#define CKPT_IO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace graphene {
namespace ckpt {

/** Append-only little-endian encoder backing a checkpoint payload. */
class Writer
{
  public:
    void u8(std::uint8_t v) { _buf.push_back(v); }

    void u32(std::uint32_t v) { fixed(v); }

    void u64(std::uint64_t v) { fixed(v); }

    /** Exact IEEE-754 bit pattern: restores bit-identically. */
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        _buf.insert(_buf.end(), p, p + size);
    }

    /** Room for exactly @p size more bytes, for a writer whose final
     *  size is known up front (encode()). */
    void reserve(std::size_t size) { _buf.reserve(_buf.size() + size); }

    const std::vector<std::uint8_t> &data() const { return _buf; }
    std::size_t size() const { return _buf.size(); }

    /** Move the encoded bytes out; the writer is left empty. */
    std::vector<std::uint8_t> take()
    {
        std::vector<std::uint8_t> out = std::move(_buf);
        _buf.clear();
        return out;
    }

  private:
    /** One fixed-width little-endian field: a single grow and copy on
     *  little-endian hosts, a byte loop elsewhere. */
    template <typename T>
    void fixed(T v)
    {
        const std::size_t at = _buf.size();
        _buf.resize(at + sizeof(T));
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(_buf.data() + at, &v, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i)
                _buf[at + i] =
                    static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
        }
    }

    std::vector<std::uint8_t> _buf;
};

/**
 * Bounds-checked decoder over a checkpoint payload. Reads never index
 * past the buffer: the first short read latches `failed`, later reads
 * return zero values, and finish() reports the latched state as a
 * typed Error.
 */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    std::uint8_t u8()
    {
        if (!need(1))
            return 0;
        return _data[_pos++];
    }

    std::uint32_t u32() { return fixed<std::uint32_t>(); }

    std::uint64_t u64() { return fixed<std::uint64_t>(); }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool boolean() { return u8() != 0; }

    std::string str()
    {
        const std::uint64_t len = u64();
        if (!need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(_data + _pos),
                      static_cast<std::size_t>(len));
        _pos += static_cast<std::size_t>(len);
        return s;
    }

    /**
     * An element count of at most @p max. Every element takes at least
     * one byte, so a count beyond the bytes left is a lie too; either
     * way the failure is latched and the count reads as zero.
     */
    std::uint64_t boundedCount(std::uint64_t max = UINT64_MAX)
    {
        const std::uint64_t n = u64();
        if (n > max || n > remaining())
            _failed = true;
        return _failed ? 0 : n;
    }

    bool failed() const { return _failed; }
    std::size_t remaining() const { return _size - _pos; }

    /**
     * Latch a failure from restore-side validation (an element count
     * that disagrees with the receiving structure, an out-of-range
     * row id): the restore keeps running harmlessly and finish()
     * reports the rejection.
     */
    void fail() { _failed = true; }

    /**
     * Terminal check after a full restore pass: the stream must have
     * satisfied every read and been consumed exactly. A short read
     * means the payload lied about its own layout (truncation that
     * survived the checksum can only be a serialization bug, but it
     * is still rejected, not trusted); leftover bytes mean the
     * save/restore pair disagree about the schema.
     */
    Result<void> finish() const
    {
        if (_failed)
            return Error(ErrorCode::CkptTruncated,
                         strprintf("checkpoint payload ended early "
                                   "(%zu of %zu bytes consumed)",
                                   _pos, _size));
        if (_pos != _size)
            return Error(ErrorCode::Internal,
                         strprintf("checkpoint payload has %zu "
                                   "trailing byte(s): save/restore "
                                   "schema mismatch",
                                   remaining()));
        return Result<void>::success();
    }

  private:
    /** The mirror of Writer::fixed(): zero on a short read. */
    template <typename T>
    T fixed()
    {
        if (!need(sizeof(T)))
            return 0;
        T v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, _data + _pos, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i)
                v |= static_cast<T>(_data[_pos + i]) << (8 * i);
        }
        _pos += sizeof(T);
        return v;
    }

    bool need(std::uint64_t n)
    {
        if (_failed || n > _size - _pos) {
            _failed = true;
            return false;
        }
        return true;
    }

    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    bool _failed = false;
};

} // namespace ckpt
} // namespace graphene

#endif // CKPT_IO_HH
