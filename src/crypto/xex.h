/**
 * @file
 * XEX tweakable cipher over AES-128, modelling the SEV memory encryption
 * engine in the memory controller.
 *
 * SEV encrypts each 16-byte line with a physical-address-dependent tweak,
 * so identical plaintext at different system physical addresses yields
 * different ciphertext. That property is load-bearing for the paper: it is
 * why encrypted guest pages cannot be deduplicated (§7.1) and why KVM pins
 * guest pages during boot (§6.2).
 */
#ifndef SEVF_CRYPTO_XEX_H_
#define SEVF_CRYPTO_XEX_H_

#include "crypto/aes128.h"
#include "taint/taint.h"

namespace sevf::crypto {

namespace detail {
struct Tweak128; // crypto/xex_lines.h
} // namespace detail

/**
 * Per-VM-key XEX cipher: C = E_k(P ^ T(addr)) ^ T(addr) where the tweak
 * T(addr) = E_k2(addr || 0...) depends on the system physical address of
 * the 16-byte line.
 */
class XexCipher
{
  public:
    /**
     * @param key data encryption key (the per-guest VEK)
     * @param tweak_key key for deriving address tweaks; the real hardware
     *        derives this internally, we take it with the VEK
     */
    XexCipher(const Aes128Key &key, const Aes128Key &tweak_key);

    /**
     * Encrypt @p src (a multiple of 16 bytes that sits at system
     * physical address @p addr) into @p dst, which must hold src.size()
     * bytes. @p dst may equal src.data() (in place) but must not
     * partially overlap it. Clears the taint labels of @p dst: it now
     * holds ciphertext the host may see.
     */
    void encrypt(ByteSpan src, u8 *dst, u64 addr) const;

    /** Decrypt @p src at @p addr into @p dst; same contract as encrypt. */
    void decrypt(ByteSpan src, u8 *dst, u64 addr) const;

  private:
    /** The base tweak of the 16-byte line at @p line_addr. */
    detail::Tweak128 tweakFor(u64 line_addr) const;
    /**
     * The one range walker behind encrypt and decrypt: page-parallel
     * chunks, one tweakFor per page, and the page's lines in one line
     * loop (AES-NI or T-table, chosen once per range).
     */
    void cryptRange(ByteSpan src, u8 *dst, u64 addr, bool decrypt) const;

    Aes128 data_cipher_;
    Aes128 tweak_cipher_;
    /**
     * Taint carried by the key schedules: inherited from the key bytes
     * at construction so the engine object itself (which contains the
     * expanded VEK) is labelled secret, and cleared with the engine.
     */
    taint::ScopedLabel key_label_;
};

} // namespace sevf::crypto

#endif // SEVF_CRYPTO_XEX_H_
