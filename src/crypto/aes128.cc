#include "crypto/aes128.h"

#include <cstring>

// Hardware AES rounds: x86-64 with a GCC/Clang toolchain can compile
// the AES-NI path with a per-function target attribute and select it
// at runtime, keeping the portable binary runnable on any host.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SEVF_AESNI_DISPATCH 1
#include <immintrin.h>
#endif

namespace sevf::crypto {

namespace {

constexpr u8 kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16,
};

constexpr u8 kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d,
};

constexpr u8 kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                          0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr u8
xtime(u8 x)
{
    return static_cast<u8>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr u8
gmul(u8 a, u8 b)
{
    u8 p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1) {
            p ^= a;
        }
        a = xtime(a);
        b = static_cast<u8>(b >> 1);
    }
    return p;
}

u32
rotr8(u32 v)
{
    return (v >> 8) | (v << 24);
}

/**
 * Encryption/decryption T-tables (the classic 32-bit formulation): one
 * table lookup folds SubBytes+ShiftRows+MixColumns per byte.
 */
struct Tables {
    u32 te0[256], te1[256], te2[256], te3[256];
    u32 td0[256], td1[256], td2[256], td3[256];

    Tables()
    {
        for (int i = 0; i < 256; ++i) {
            u8 s = kSbox[i];
            te0[i] = static_cast<u32>(gmul(s, 2)) << 24 |
                     static_cast<u32>(s) << 16 | static_cast<u32>(s) << 8 |
                     static_cast<u32>(gmul(s, 3));
            te1[i] = rotr8(te0[i]);
            te2[i] = rotr8(te1[i]);
            te3[i] = rotr8(te2[i]);

            u8 is = kInvSbox[i];
            td0[i] = static_cast<u32>(gmul(is, 0x0e)) << 24 |
                     static_cast<u32>(gmul(is, 0x09)) << 16 |
                     static_cast<u32>(gmul(is, 0x0d)) << 8 |
                     static_cast<u32>(gmul(is, 0x0b));
            td1[i] = rotr8(td0[i]);
            td2[i] = rotr8(td1[i]);
            td3[i] = rotr8(td2[i]);
        }
    }
};

const Tables &
tables()
{
    static const Tables t;
    return t;
}

u32
loadBe(const u8 *p)
{
    return static_cast<u32>(p[0]) << 24 | static_cast<u32>(p[1]) << 16 |
           static_cast<u32>(p[2]) << 8 | static_cast<u32>(p[3]);
}

void
storeBe(u8 *p, u32 v)
{
    p[0] = static_cast<u8>(v >> 24);
    p[1] = static_cast<u8>(v >> 16);
    p[2] = static_cast<u8>(v >> 8);
    p[3] = static_cast<u8>(v);
}

/** InvMixColumns on a round-key word (equivalent inverse cipher). */
u32
invMixWord(u32 w)
{
    u8 b[4] = {static_cast<u8>(w >> 24), static_cast<u8>(w >> 16),
               static_cast<u8>(w >> 8), static_cast<u8>(w)};
    u8 o[4];
    o[0] = gmul(b[0], 0x0e) ^ gmul(b[1], 0x0b) ^ gmul(b[2], 0x0d) ^
           gmul(b[3], 0x09);
    o[1] = gmul(b[0], 0x09) ^ gmul(b[1], 0x0e) ^ gmul(b[2], 0x0b) ^
           gmul(b[3], 0x0d);
    o[2] = gmul(b[0], 0x0d) ^ gmul(b[1], 0x09) ^ gmul(b[2], 0x0e) ^
           gmul(b[3], 0x0b);
    o[3] = gmul(b[0], 0x0b) ^ gmul(b[1], 0x0d) ^ gmul(b[2], 0x09) ^
           gmul(b[3], 0x0e);
    return static_cast<u32>(o[0]) << 24 | static_cast<u32>(o[1]) << 16 |
           static_cast<u32>(o[2]) << 8 | o[3];
}

#if defined(SEVF_AESNI_DISPATCH)

bool
cpuHasAesni()
{
    static const bool has = __builtin_cpu_supports("aes") &&
                            __builtin_cpu_supports("sse2");
    return has;
}

__attribute__((target("aes,sse2"))) void
encryptBlockAesni(const u8 *rk, u8 *block)
{
    const __m128i *keys = reinterpret_cast<const __m128i *>(rk);
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i *>(block));
    s = _mm_xor_si128(s, _mm_loadu_si128(keys));
    for (int round = 1; round < 10; ++round) {
        s = _mm_aesenc_si128(s, _mm_loadu_si128(keys + round));
    }
    s = _mm_aesenclast_si128(s, _mm_loadu_si128(keys + 10));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(block), s);
}

__attribute__((target("aes,sse2"))) void
decryptBlockAesni(const u8 *rk, u8 *block)
{
    // The equivalent-inverse-cipher schedule (InvMixColumns on the
    // middle round keys) is exactly what aesdec expects.
    const __m128i *keys = reinterpret_cast<const __m128i *>(rk);
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i *>(block));
    s = _mm_xor_si128(s, _mm_loadu_si128(keys));
    for (int round = 1; round < 10; ++round) {
        s = _mm_aesdec_si128(s, _mm_loadu_si128(keys + round));
    }
    s = _mm_aesdeclast_si128(s, _mm_loadu_si128(keys + 10));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(block), s);
}

#else

bool
cpuHasAesni()
{
    return false;
}

#endif // SEVF_AESNI_DISPATCH

} // namespace

bool
Aes128::hardwareAccelerated()
{
    return cpuHasAesni();
}

Aes128::Aes128(const Aes128Key &key)
{
    // Standard key expansion into 44 big-endian words.
    for (int i = 0; i < 4; ++i) {
        enc_rk_[i] = loadBe(key.data() + 4 * i);
    }
    for (int i = 4; i < 44; ++i) {
        u32 temp = enc_rk_[i - 1];
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            temp = (temp << 8) | (temp >> 24);
            temp = static_cast<u32>(kSbox[(temp >> 24) & 0xff]) << 24 |
                   static_cast<u32>(kSbox[(temp >> 16) & 0xff]) << 16 |
                   static_cast<u32>(kSbox[(temp >> 8) & 0xff]) << 8 |
                   kSbox[temp & 0xff];
            temp ^= static_cast<u32>(kRcon[i / 4 - 1]) << 24;
        }
        enc_rk_[i] = enc_rk_[i - 4] ^ temp;
    }

    // Decryption round keys (equivalent inverse cipher): reverse the
    // schedule and InvMixColumns the middle rounds.
    for (int round = 0; round <= 10; ++round) {
        for (int w = 0; w < 4; ++w) {
            u32 k = enc_rk_[4 * (10 - round) + w];
            dec_rk_[4 * round + w] =
                (round == 0 || round == 10) ? k : invMixWord(k);
        }
    }

    // Serialize both schedules to the byte layout the AES-NI round
    // instructions consume (big-endian words == FIPS-197 byte order).
    for (int i = 0; i < 44; ++i) {
        storeBe(rk_bytes_ + 4 * i, enc_rk_[i]);
        storeBe(rk_bytes_ + 176 + 4 * i, dec_rk_[i]);
    }
}

void
Aes128::encryptBlock(u8 *block) const
{
#if defined(SEVF_AESNI_DISPATCH)
    if (cpuHasAesni()) {
        encryptBlockAesni(rk_bytes_, block);
        return;
    }
#endif
    encryptBlockTable(block);
}

void
Aes128::decryptBlock(u8 *block) const
{
#if defined(SEVF_AESNI_DISPATCH)
    if (cpuHasAesni()) {
        decryptBlockAesni(rk_bytes_ + 176, block);
        return;
    }
#endif
    decryptBlockTable(block);
}

void
Aes128::encryptBlockTable(u8 *block) const
{
    const Tables &t = tables();
    u32 s0 = loadBe(block) ^ enc_rk_[0];
    u32 s1 = loadBe(block + 4) ^ enc_rk_[1];
    u32 s2 = loadBe(block + 8) ^ enc_rk_[2];
    u32 s3 = loadBe(block + 12) ^ enc_rk_[3];

    for (int round = 1; round < 10; ++round) {
        const u32 *rk = enc_rk_ + 4 * round;
        u32 n0 = t.te0[s0 >> 24] ^ t.te1[(s1 >> 16) & 0xff] ^
                 t.te2[(s2 >> 8) & 0xff] ^ t.te3[s3 & 0xff] ^ rk[0];
        u32 n1 = t.te0[s1 >> 24] ^ t.te1[(s2 >> 16) & 0xff] ^
                 t.te2[(s3 >> 8) & 0xff] ^ t.te3[s0 & 0xff] ^ rk[1];
        u32 n2 = t.te0[s2 >> 24] ^ t.te1[(s3 >> 16) & 0xff] ^
                 t.te2[(s0 >> 8) & 0xff] ^ t.te3[s1 & 0xff] ^ rk[2];
        u32 n3 = t.te0[s3 >> 24] ^ t.te1[(s0 >> 16) & 0xff] ^
                 t.te2[(s1 >> 8) & 0xff] ^ t.te3[s2 & 0xff] ^ rk[3];
        s0 = n0;
        s1 = n1;
        s2 = n2;
        s3 = n3;
    }

    const u32 *rk = enc_rk_ + 40;
    u32 o0 = static_cast<u32>(kSbox[s0 >> 24]) << 24 |
             static_cast<u32>(kSbox[(s1 >> 16) & 0xff]) << 16 |
             static_cast<u32>(kSbox[(s2 >> 8) & 0xff]) << 8 |
             kSbox[s3 & 0xff];
    u32 o1 = static_cast<u32>(kSbox[s1 >> 24]) << 24 |
             static_cast<u32>(kSbox[(s2 >> 16) & 0xff]) << 16 |
             static_cast<u32>(kSbox[(s3 >> 8) & 0xff]) << 8 |
             kSbox[s0 & 0xff];
    u32 o2 = static_cast<u32>(kSbox[s2 >> 24]) << 24 |
             static_cast<u32>(kSbox[(s3 >> 16) & 0xff]) << 16 |
             static_cast<u32>(kSbox[(s0 >> 8) & 0xff]) << 8 |
             kSbox[s1 & 0xff];
    u32 o3 = static_cast<u32>(kSbox[s3 >> 24]) << 24 |
             static_cast<u32>(kSbox[(s0 >> 16) & 0xff]) << 16 |
             static_cast<u32>(kSbox[(s1 >> 8) & 0xff]) << 8 |
             kSbox[s2 & 0xff];
    storeBe(block, o0 ^ rk[0]);
    storeBe(block + 4, o1 ^ rk[1]);
    storeBe(block + 8, o2 ^ rk[2]);
    storeBe(block + 12, o3 ^ rk[3]);
}

void
Aes128::decryptBlockTable(u8 *block) const
{
    const Tables &t = tables();
    u32 s0 = loadBe(block) ^ dec_rk_[0];
    u32 s1 = loadBe(block + 4) ^ dec_rk_[1];
    u32 s2 = loadBe(block + 8) ^ dec_rk_[2];
    u32 s3 = loadBe(block + 12) ^ dec_rk_[3];

    for (int round = 1; round < 10; ++round) {
        const u32 *rk = dec_rk_ + 4 * round;
        u32 n0 = t.td0[s0 >> 24] ^ t.td1[(s3 >> 16) & 0xff] ^
                 t.td2[(s2 >> 8) & 0xff] ^ t.td3[s1 & 0xff] ^ rk[0];
        u32 n1 = t.td0[s1 >> 24] ^ t.td1[(s0 >> 16) & 0xff] ^
                 t.td2[(s3 >> 8) & 0xff] ^ t.td3[s2 & 0xff] ^ rk[1];
        u32 n2 = t.td0[s2 >> 24] ^ t.td1[(s1 >> 16) & 0xff] ^
                 t.td2[(s0 >> 8) & 0xff] ^ t.td3[s3 & 0xff] ^ rk[2];
        u32 n3 = t.td0[s3 >> 24] ^ t.td1[(s2 >> 16) & 0xff] ^
                 t.td2[(s1 >> 8) & 0xff] ^ t.td3[s0 & 0xff] ^ rk[3];
        s0 = n0;
        s1 = n1;
        s2 = n2;
        s3 = n3;
    }

    const u32 *rk = dec_rk_ + 40;
    u32 o0 = static_cast<u32>(kInvSbox[s0 >> 24]) << 24 |
             static_cast<u32>(kInvSbox[(s3 >> 16) & 0xff]) << 16 |
             static_cast<u32>(kInvSbox[(s2 >> 8) & 0xff]) << 8 |
             kInvSbox[s1 & 0xff];
    u32 o1 = static_cast<u32>(kInvSbox[s1 >> 24]) << 24 |
             static_cast<u32>(kInvSbox[(s0 >> 16) & 0xff]) << 16 |
             static_cast<u32>(kInvSbox[(s3 >> 8) & 0xff]) << 8 |
             kInvSbox[s2 & 0xff];
    u32 o2 = static_cast<u32>(kInvSbox[s2 >> 24]) << 24 |
             static_cast<u32>(kInvSbox[(s1 >> 16) & 0xff]) << 16 |
             static_cast<u32>(kInvSbox[(s0 >> 8) & 0xff]) << 8 |
             kInvSbox[s3 & 0xff];
    u32 o3 = static_cast<u32>(kInvSbox[s3 >> 24]) << 24 |
             static_cast<u32>(kInvSbox[(s2 >> 16) & 0xff]) << 16 |
             static_cast<u32>(kInvSbox[(s1 >> 8) & 0xff]) << 8 |
             kInvSbox[s0 & 0xff];
    storeBe(block, o0 ^ rk[0]);
    storeBe(block + 4, o1 ^ rk[1]);
    storeBe(block + 8, o2 ^ rk[2]);
    storeBe(block + 12, o3 ^ rk[3]);
}

} // namespace sevf::crypto
