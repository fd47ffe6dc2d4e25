#include "base/bytes.h"

#include <algorithm>

namespace sevf {

std::string
toHex(ByteSpan data)
{
    static constexpr char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(data.size() * 2);
    for (u8 b : data) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

namespace {

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

} // namespace

Result<ByteVec>
fromHex(std::string_view hex)
{
    if (hex.size() % 2 != 0) {
        return errInvalidArgument("hex string has odd length");
    }
    ByteVec out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        int hi = hexNibble(hex[i]);
        int lo = hexNibble(hex[i + 1]);
        if (hi < 0 || lo < 0) {
            return errInvalidArgument("non-hex character in hex string");
        }
        out.push_back(static_cast<u8>(hi << 4 | lo));
    }
    return out;
}

bool
digestEqual(ByteSpan a, ByteSpan b)
{
    if (a.size() != b.size()) {
        return false;
    }
    // Accumulate differences instead of early exit: digest comparison in the
    // boot verifier must not leak a match prefix through timing.
    u8 diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        diff |= a[i] ^ b[i];
    }
    return diff == 0;
}

ByteSpan
asBytes(std::string_view s)
{
    return {reinterpret_cast<const u8 *>(s.data()), s.size()};
}

ByteVec
toBytes(std::string_view s)
{
    ByteSpan b = asBytes(s);
    return {b.begin(), b.end()};
}

ByteSpan
zeroBlock()
{
    static const u8 kZeros[64 * 1024] = {};
    return ByteSpan(kZeros, sizeof(kZeros));
}

} // namespace sevf
