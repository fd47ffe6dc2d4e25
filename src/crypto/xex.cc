#include "crypto/xex.h"

#include <algorithm>
#include <cstring>

#include "base/bytes.h"
#include "base/logging.h"
#include "base/parallel.h"
#include "crypto/xex_lines.h"
#include "obs/metrics.h"
#include "obs/span.h"

// The AES-NI line loop is compiled with a per-function target
// attribute; Aes128::hardwareAccelerated() gates it at runtime. The
// attribute goes through a macro so sevf_lint's root-of-trust call
// graph parses (and counts) the functions that carry it.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SEVF_XEX_AESNI 1
#define SEVF_AESNI_TARGET __attribute__((target("aes,sse2")))
#include <immintrin.h>
#else
#define SEVF_AESNI_TARGET
#endif

namespace sevf::crypto {

namespace {

using detail::Tweak128;

/**
 * Multiply by x^i for 0 <= i < 256 in O(1): shift the 128-bit
 * polynomial left by @p i bits into six words, then fold everything at
 * or above bit 128 back down with the reduction taps of
 * x^128 + x^7 + x^2 + x + 1 (GHASH-style word-wise reduction). This is
 * what makes a mid-page tweakFor O(1) instead of O(line_index)
 * doubling steps.
 */
inline void
gfMulXPow(Tweak128 &t, unsigned i)
{
    if (i == 0) {
        return;
    }
    u64 w[6] = {};
    unsigned word = i / 64;
    unsigned bit = i % 64;
    if (bit == 0) {
        w[word] = t.lo;
        w[word + 1] = t.hi;
    } else {
        w[word] = t.lo << bit;
        w[word + 1] = (t.lo >> (64 - bit)) | (t.hi << bit);
        w[word + 2] = t.hi >> (64 - bit);
    }
    // A bit at position 128+k folds to k, k+1, k+2, k+7. Top-down so
    // each fold only feeds words that are still to be processed.
    for (int idx = 5; idx >= 2; --idx) {
        u64 h = w[idx];
        if (h == 0) {
            continue;
        }
        w[idx] = 0;
        w[idx - 2] ^= h ^ (h << 1) ^ (h << 2) ^ (h << 7);
        w[idx - 1] ^= (h >> 63) ^ (h >> 62) ^ (h >> 57);
    }
    t.lo = w[0];
    t.hi = w[1];
}

inline void
xorTweak(u8 *block, const Tweak128 &t)
{
    u64 b0, b1;
    std::memcpy(&b0, block, 8);
    std::memcpy(&b1, block + 8, 8);
    b0 ^= t.lo;
    b1 ^= t.hi;
    std::memcpy(block, &b0, 8);
    std::memcpy(block + 8, &b1, 8);
}

/**
 * Bytes per parallel chunk for the page-parallel bulk paths. Tweak
 * chains restart at every 4 KiB page, so chunking on page boundaries
 * is bit-identical to the serial pass at any thread count.
 */
constexpr u64 kChunkBytes = 16 * kPageSize;

#if defined(SEVF_XEX_AESNI)

SEVF_AESNI_TARGET inline __m128i
aesRound(__m128i s, __m128i k, bool decrypt)
{
    // The equivalent-inverse-cipher schedule (InvMixColumns on the
    // middle round keys) is exactly what aesdec expects.
    return decrypt ? _mm_aesdec_si128(s, k) : _mm_aesenc_si128(s, k);
}

SEVF_AESNI_TARGET inline __m128i
aesLastRound(__m128i s, __m128i k, bool decrypt)
{
    return decrypt ? _mm_aesdeclast_si128(s, k) : _mm_aesenclast_si128(s, k);
}

inline __m128i
tweakReg(const Tweak128 &t)
{
    return _mm_set_epi64x(static_cast<long long>(t.hi),
                          static_cast<long long>(t.lo));
}

/** XEX of the line at @p src under tweak @p tw, round keys @p k. */
SEVF_AESNI_TARGET inline __m128i
xexLine(const __m128i *k, bool decrypt, const u8 *src, __m128i tw)
{
    __m128i s = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(src)),
        _mm_xor_si128(tw, k[0]));
    for (int r = 1; r < 10; ++r) {
        s = aesRound(s, k[r], decrypt);
    }
    return _mm_xor_si128(aesLastRound(s, k[10], decrypt), tw);
}

#endif // SEVF_XEX_AESNI

} // namespace

namespace detail {

SEVF_AESNI_TARGET void
xexLinesAesni(const Aes128 &aes, bool decrypt, const u8 *src, u8 *dst,
              u64 lines, Tweak128 t)
{
#if defined(SEVF_XEX_AESNI)
    const __m128i *rk =
        reinterpret_cast<const __m128i *>(aes.roundKeyBytes(decrypt));
    __m128i k[11];
    for (int r = 0; r < 11; ++r) {
        k[r] = _mm_loadu_si128(rk + r);
    }
    u64 i = 0;
    // Four lines in flight: one line's ten rounds are a latency chain,
    // and four independent chains keep the AES unit busy (about twice
    // the throughput of one chain on an AES-NI Xeon).
    for (; i + 4 <= lines; i += 4) {
        const u8 *in = src + 16 * i;
        __m128i t0 = tweakReg(t);
        gfDouble(t);
        __m128i t1 = tweakReg(t);
        gfDouble(t);
        __m128i t2 = tweakReg(t);
        gfDouble(t);
        __m128i t3 = tweakReg(t);
        gfDouble(t);
        __m128i s0 = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in)),
            _mm_xor_si128(t0, k[0]));
        __m128i s1 = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 16)),
            _mm_xor_si128(t1, k[0]));
        __m128i s2 = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 32)),
            _mm_xor_si128(t2, k[0]));
        __m128i s3 = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 48)),
            _mm_xor_si128(t3, k[0]));
        for (int r = 1; r < 10; ++r) {
            s0 = aesRound(s0, k[r], decrypt);
            s1 = aesRound(s1, k[r], decrypt);
            s2 = aesRound(s2, k[r], decrypt);
            s3 = aesRound(s3, k[r], decrypt);
        }
        __m128i *out = reinterpret_cast<__m128i *>(dst + 16 * i);
        _mm_storeu_si128(out,
                         _mm_xor_si128(aesLastRound(s0, k[10], decrypt), t0));
        _mm_storeu_si128(out + 1,
                         _mm_xor_si128(aesLastRound(s1, k[10], decrypt), t1));
        _mm_storeu_si128(out + 2,
                         _mm_xor_si128(aesLastRound(s2, k[10], decrypt), t2));
        _mm_storeu_si128(out + 3,
                         _mm_xor_si128(aesLastRound(s3, k[10], decrypt), t3));
    }
    for (; i < lines; ++i) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + 16 * i),
                         xexLine(k, decrypt, src + 16 * i, tweakReg(t)));
        gfDouble(t);
    }
#else
    (void)aes, (void)decrypt, (void)src, (void)dst, (void)lines, (void)t;
    panic("xexLinesAesni: built without AES-NI support");
#endif
}

void
xexLinesTable(const Aes128 &aes, bool decrypt, const u8 *src, u8 *dst,
              u64 lines, Tweak128 t)
{
    for (u64 i = 0; i < lines; ++i) {
        u8 *block = dst + 16 * i;
        std::memmove(block, src + 16 * i, 16);
        xorTweak(block, t);
        if (decrypt) {
            aes.decryptBlockTable(block);
        } else {
            aes.encryptBlockTable(block);
        }
        xorTweak(block, t);
        gfDouble(t);
    }
}

} // namespace detail

XexCipher::XexCipher(const Aes128Key &key, const Aes128Key &tweak_key)
    : data_cipher_(key), tweak_cipher_(tweak_key)
{
    // The key schedules are derived secrets: label the ciphers' storage
    // with whatever labels the caller put on the raw keys (the PSP marks
    // freshly generated VEKs kVek), joined with kVek since any key fed
    // to the memory-encryption engine protects guest memory.
    taint::TaintSet from_keys =
        taint::query(key.data(), key.size()) |
        taint::query(tweak_key.data(), tweak_key.size());
    if (from_keys != taint::kNone) {
        key_label_.set(&data_cipher_,
                       sizeof(data_cipher_) + sizeof(tweak_cipher_),
                       from_keys | taint::kVek);
    }
}

Tweak128
XexCipher::tweakFor(u64 line_addr) const
{
    // XTS-style: one AES invocation per 4 KiB page, then a single O(1)
    // jump to the line's position in the page (multiply by x^i). Tweaks
    // stay unique per physical line, which is the property everything
    // else relies on (§7.1).
    AesBlock b = {};
    storeLe<u64>(b.data(), alignDown(line_addr, kPageSize));
    tweak_cipher_.encryptBlock(b.data());
    Tweak128 t{loadLe<u64>(b.data()), loadLe<u64>(b.data() + 8)};
    gfMulXPow(t, static_cast<unsigned>((line_addr % kPageSize) / 16));
    return t;
}

void
XexCipher::cryptRange(ByteSpan src, u8 *dst, u64 addr, bool decrypt) const
{
    const u64 len = src.size();
    SEVF_CHECK(len % 16 == 0);
    SEVF_CHECK(addr % 16 == 0);
    SEVF_CHECK(dst == src.data() || dst + len <= src.data() ||
               src.data() + len <= dst);
    if (len == 0) {
        return;
    }
    // Resolved once per range: a plain branch, so the call graph sees
    // both line loops.
    const bool aesni = Aes128::hardwareAccelerated();
    // Page-parallel bulk path: every 16-byte line's tweak depends only
    // on its own address, so disjoint page-aligned chunks run
    // independently and bit-identically at any host thread count.
    u64 page_base = alignDown(addr, kPageSize);
    base::parallelFor(
        0, pagesFor(addr + len - page_base), kChunkBytes / kPageSize,
        [&](u64 page_lo, u64 page_hi) {
            for (u64 page = page_lo; page < page_hi; ++page) {
                u64 lo = std::max(addr, page_base + page * kPageSize);
                u64 hi = std::min(addr + len,
                                  page_base + (page + 1) * kPageSize);
                const u8 *s = src.data() + (lo - addr);
                u8 *d = dst + (lo - addr);
                if (aesni) {
                    detail::xexLinesAesni(data_cipher_, decrypt, s, d,
                                          (hi - lo) / 16, tweakFor(lo));
                } else {
                    detail::xexLinesTable(data_cipher_, decrypt, s, d,
                                          (hi - lo) / 16, tweakFor(lo));
                }
            }
        });
}

void
XexCipher::encrypt(ByteSpan src, u8 *dst, u64 addr) const
{
    static obs::KernelMetrics &metrics = obs::kernelMetrics("xex_encrypt");
    obs::KernelTimer timer(metrics, src.size());
    SEVF_SPAN("xex.encrypt", "bytes", static_cast<u64>(src.size()));
    cryptRange(src, dst, addr, false);
    // Encryption is a declassification boundary: the destination now
    // holds ciphertext, which the host may see. (Plaintext labelling is
    // page granular and lives in GuestMemory's shadow, not on scratch
    // buffers, so decrypt() deliberately does not mark.)
    taint::clearRange(dst, src.size());
}

void
XexCipher::decrypt(ByteSpan src, u8 *dst, u64 addr) const
{
    static obs::KernelMetrics &metrics = obs::kernelMetrics("xex_decrypt");
    obs::KernelTimer timer(metrics, src.size());
    SEVF_SPAN("xex.decrypt", "bytes", static_cast<u64>(src.size()));
    cryptRange(src, dst, addr, true);
}

} // namespace sevf::crypto
