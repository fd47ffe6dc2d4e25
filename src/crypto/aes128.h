/**
 * @file
 * AES-128 block cipher (FIPS 197) implemented from scratch.
 *
 * This is the block primitive behind the simulated SEV memory encryption
 * engine (crypto/xex.h). The portable path uses the classic 32-bit
 * T-table formulation; on x86-64 parts with AES-NI the block functions
 * dispatch to the hardware rounds at runtime (the two paths are
 * bit-identical and both covered by the FIPS-197 known-answer tests).
 * Correctness is what matters here, not side-channel hardening — the
 * "hardware" running it is the simulated encryption engine in the
 * memory controller.
 */
#ifndef SEVF_CRYPTO_AES128_H_
#define SEVF_CRYPTO_AES128_H_

#include <array>

#include "base/types.h"

namespace sevf::crypto {

/** A 16-byte AES key or block. */
using Aes128Key = std::array<u8, 16>;
using AesBlock = std::array<u8, 16>;

/**
 * AES-128 with precomputed key schedule. Encrypt and decrypt single
 * 16-byte blocks; modes of operation are layered on top (see XexCipher).
 */
class Aes128
{
  public:
    explicit Aes128(const Aes128Key &key);

    /** Encrypt one block in place. */
    void encryptBlock(u8 *block) const;

    /** Decrypt one block in place. */
    void decryptBlock(u8 *block) const;

    /** True when the hardware (AES-NI) block path is in use. */
    static bool hardwareAccelerated();

    /** Encrypt one block in place with the portable T-table rounds. */
    void encryptBlockTable(u8 *block) const;

    /** Decrypt one block in place with the portable T-table rounds. */
    void decryptBlockTable(u8 *block) const;

    /**
     * The 11 round keys (176 bytes) in the byte layout the AES-NI round
     * instructions consume: the encryption schedule, or with
     * @p decrypt the equivalent-inverse-cipher decryption schedule.
     */
    const u8 *
    roundKeyBytes(bool decrypt) const
    {
        return rk_bytes_ + (decrypt ? 176 : 0);
    }

  private:

    // 11 round keys as big-endian words (T-table formulation), plus the
    // equivalent-inverse-cipher decryption schedule. rk_bytes_ holds the
    // same schedules serialized to the byte layout the AES-NI round
    // instructions consume (encrypt schedule then decrypt schedule).
    u32 enc_rk_[44];
    u32 dec_rk_[44];
    u8 rk_bytes_[2 * 176];
};

} // namespace sevf::crypto

#endif // SEVF_CRYPTO_AES128_H_
