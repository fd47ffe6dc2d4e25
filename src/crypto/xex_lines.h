/**
 * @file
 * Internal to crypto/xex: the per-page XEX line loops behind
 * XexCipher::encrypt / decrypt, exposed so tests can pin the AES-NI
 * loop and the portable T-table loop against each other directly.
 *
 * A line loop runs @p lines consecutive 16-byte lines of one 4 KiB page:
 * dst = E_k(src ^ T) ^ T (or the decryption), with T doubled in
 * GF(2^128) after every line (the XTS tweak chain). The caller supplies
 * the first line's tweak from XexCipher's per-page tweakFor and must not
 * cross a page boundary, where the chain restarts. @p src and @p dst
 * may coincide (in place) but must not partially overlap.
 */
#ifndef SEVF_CRYPTO_XEX_LINES_H_
#define SEVF_CRYPTO_XEX_LINES_H_

#include "base/types.h"
#include "crypto/aes128.h"

namespace sevf::crypto::detail {

/**
 * The XTS tweak as a 128-bit little-endian polynomial over GF(2), kept
 * as two u64 halves so doubling and XOR run word-wise.
 */
struct Tweak128 {
    u64 lo;
    u64 hi;
};

/** Multiply by alpha (= x) in GF(2^128): the XTS tweak-doubling step. */
inline void
gfDouble(Tweak128 &t)
{
    u64 carry = t.hi >> 63;
    t.hi = (t.hi << 1) | (t.lo >> 63);
    t.lo = (t.lo << 1) ^ (0x87 & (0 - carry));
}

/**
 * Line loop on the AES-NI rounds: the 11 round keys stay in registers
 * for the whole page. Only callable when Aes128::hardwareAccelerated().
 */
void xexLinesAesni(const Aes128 &aes, bool decrypt, const u8 *src, u8 *dst,
                   u64 lines, Tweak128 t);

/** The same line loop on the portable T-table rounds. */
void xexLinesTable(const Aes128 &aes, bool decrypt, const u8 *src, u8 *dst,
                   u64 lines, Tweak128 t);

} // namespace sevf::crypto::detail

#endif // SEVF_CRYPTO_XEX_LINES_H_
