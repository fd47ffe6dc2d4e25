/**
 * @file
 * Byte-level utilities: little-endian packing, hex encoding, and a
 * cursor-style reader/writer for binary image formats.
 */
#ifndef SEVF_BASE_BYTES_H_
#define SEVF_BASE_BYTES_H_

#include <string>
#include <string_view>

#include "base/status.h"
#include "base/types.h"

namespace sevf {

/** Read an unsigned little-endian integer of Width bytes from @p p. */
template <typename T>
T
loadLe(const u8 *p)
{
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(p[i]) << (8 * i);
    }
    return v;
}

/** Store @p v little-endian into @p p. */
template <typename T>
void
storeLe(u8 *p, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        p[i] = static_cast<u8>(v >> (8 * i));
    }
}

/** Lowercase hex encoding of @p data. */
std::string toHex(ByteSpan data);

/** Decode lowercase/uppercase hex; fails on odd length or non-hex chars. */
Result<ByteVec> fromHex(std::string_view hex);

/** Constant-time-ish equality for digests (length + content). */
bool digestEqual(ByteSpan a, ByteSpan b);

/** Byte view of a std::string_view's contents. */
ByteSpan asBytes(std::string_view s);

/** Copy of @p s as a byte vector (no NUL terminator). */
ByteVec toBytes(std::string_view s);

/**
 * A static all-zero block of 64 KiB, a multiple of the page size: the
 * source for zero-fill writes (BSS tails) and zero-page comparisons
 * without allocating.
 */
ByteSpan zeroBlock();

/**
 * Sequential binary writer building a ByteVec; all integers little-endian.
 * Used by the image builders (ELF, bzImage, CPIO).
 */
class ByteWriter
{
  public:
    ByteWriter() = default;

    void u8le(u8 v) { buf_.push_back(v); }
    void u16le(u16 v) { appendLe(v); }
    void u32le(u32 v) { appendLe(v); }
    void u64le(u64 v) { appendLe(v); }

    /** Append raw bytes. */
    void bytes(ByteSpan data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

    /** Append the characters of @p s (no terminator). */
    void str(std::string_view s) { bytes(asBytes(s)); }

    /** Append @p count zero bytes. */
    void zeros(std::size_t count) { buf_.insert(buf_.end(), count, 0); }

    /** Zero-pad so the buffer size is a multiple of @p align. */
    void
    padTo(std::size_t align)
    {
        zeros(alignUp(buf_.size(), align) - buf_.size());
    }

    /** Overwrite @p size bytes at @p offset (must already exist). */
    void
    patch(std::size_t offset, ByteSpan data)
    {
        SEVF_CHECK(offset + data.size() <= buf_.size());
        std::copy(data.begin(), data.end(), buf_.begin() + offset);
    }

    std::size_t size() const { return buf_.size(); }
    const ByteVec &buffer() const { return buf_; }
    ByteVec take() { return std::move(buf_); }

  private:
    template <typename T>
    void
    appendLe(T v)
    {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            buf_.push_back(static_cast<u8>(v >> (8 * i)));
        }
    }

    ByteVec buf_;
};

/**
 * Sequential binary reader over a ByteSpan with bounds checking; all
 * integers little-endian. Parse failures surface as kCorrupted.
 */
class ByteReader
{
  public:
    explicit ByteReader(ByteSpan data) : data_(data) {}

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    /** Move the cursor to @p offset. */
    Status
    seek(std::size_t offset)
    {
        if (offset > data_.size()) {
            return errCorrupted("seek past end of buffer");
        }
        pos_ = offset;
        return Status::ok();
    }

    Result<u8> u8le() { return readLe<u8>(); }
    Result<u16> u16le() { return readLe<u16>(); }
    Result<u32> u32le() { return readLe<u32>(); }
    Result<u64> u64le() { return readLe<u64>(); }

    /** Copy @p count bytes out. */
    Result<ByteVec>
    bytes(std::size_t count)
    {
        if (count > remaining()) {
            return errCorrupted("read past end of buffer");
        }
        ByteVec out(data_.begin() + pos_, data_.begin() + pos_ + count);
        pos_ += count;
        return out;
    }

    /** Borrow @p count bytes without copying. */
    Result<ByteSpan>
    view(std::size_t count)
    {
        if (count > remaining()) {
            return errCorrupted("view past end of buffer");
        }
        ByteSpan out = data_.subspan(pos_, count);
        pos_ += count;
        return out;
    }

    /** Skip @p count bytes. */
    Status
    skip(std::size_t count)
    {
        if (count > remaining()) {
            return errCorrupted("skip past end of buffer");
        }
        pos_ += count;
        return Status::ok();
    }

  private:
    template <typename T>
    Result<T>
    readLe()
    {
        if (sizeof(T) > remaining()) {
            return errCorrupted("read past end of buffer");
        }
        T v = loadLe<T>(data_.data() + pos_);
        pos_ += sizeof(T);
        return v;
    }

    ByteSpan data_;
    std::size_t pos_ = 0;
};

} // namespace sevf

#endif // SEVF_BASE_BYTES_H_
