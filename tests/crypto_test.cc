/**
 * @file
 * Crypto module tests against published vectors (FIPS 180-4, RFC 4231,
 * FIPS 197) plus properties of the XEX engine and launch-digest chain.
 */
#include <gtest/gtest.h>

#include <string>

#include "base/bytes.h"
#include "base/rng.h"
#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "crypto/measurement.h"
#include "crypto/sha256.h"
#include "crypto/xex.h"
#include "crypto/xex_lines.h"

namespace sevf::crypto {
namespace {

std::string
hexDigest(const Sha256Digest &d)
{
    return toHex(ByteSpan(d.data(), d.size()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(hexDigest(Sha256::digest({})),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(hexDigest(Sha256::digest(asBytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(hexDigest(Sha256::digest(asBytes(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) {
        ctx.update(asBytes(chunk));
    }
    EXPECT_EQ(hexDigest(ctx.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot)
{
    // Split points that straddle the 64-byte block boundary.
    ByteVec data(257);
    Rng rng(42);
    rng.fill(data);
    Sha256Digest oneshot = Sha256::digest(data);

    for (std::size_t split : {1u, 63u, 64u, 65u, 128u, 200u, 256u}) {
        Sha256 ctx;
        ctx.update(ByteSpan(data).first(split));
        ctx.update(ByteSpan(data).subspan(split));
        EXPECT_EQ(ctx.finalize(), oneshot) << "split=" << split;
    }
}

TEST(Sha256, ExactBlockLengths)
{
    // 55/56/64 byte messages exercise all padding branches.
    for (std::size_t len : {55u, 56u, 63u, 64u, 119u, 120u}) {
        ByteVec data(len, 0x5a);
        Sha256 a;
        a.update(data);
        Sha256 b;
        for (u8 byte : data) {
            b.update(ByteSpan(&byte, 1));
        }
        EXPECT_EQ(a.finalize(), b.finalize()) << "len=" << len;
    }
}

TEST(Sha256, ResetReuses)
{
    Sha256 ctx;
    ctx.update(asBytes("abc"));
    (void)ctx.finalize();
    ctx.reset();
    ctx.update(asBytes("abc"));
    EXPECT_EQ(hexDigest(ctx.finalize()),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Case1)
{
    ByteVec key(20, 0x0b);
    Sha256Digest mac = hmacSha256(key, asBytes("Hi There"));
    EXPECT_EQ(hexDigest(mac),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    Sha256Digest mac =
        hmacSha256(asBytes("Jefe"), asBytes("what do ya want for nothing?"));
    EXPECT_EQ(hexDigest(mac),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3)
{
    ByteVec key(20, 0xaa);
    ByteVec data(50, 0xdd);
    Sha256Digest mac = hmacSha256(key, data);
    EXPECT_EQ(hexDigest(mac),
              "773ea91e36800e46854db8ebd09181a7"
              "2959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst)
{
    // RFC 4231 case 6: 131-byte key.
    ByteVec key(131, 0xaa);
    Sha256Digest mac = hmacSha256(
        key, asBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
    EXPECT_EQ(hexDigest(mac),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity)
{
    ByteVec k1(16, 1), k2(16, 2);
    EXPECT_NE(hmacSha256(k1, asBytes("msg")), hmacSha256(k2, asBytes("msg")));
}

// ---------------------------------------------------------------- AES-128

TEST(Aes128, Fips197Vector)
{
    Aes128Key key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    AesBlock block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                      0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
    Aes128 aes(key);
    aes.encryptBlock(block.data());
    EXPECT_EQ(toHex(ByteSpan(block.data(), block.size())),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
    aes.decryptBlock(block.data());
    EXPECT_EQ(toHex(ByteSpan(block.data(), block.size())),
              "00112233445566778899aabbccddeeff");
}

TEST(Aes128, EncryptDecryptRandomBlocks)
{
    Rng rng(1);
    Aes128Key key;
    rng.fill(key);
    Aes128 aes(key);
    for (int i = 0; i < 64; ++i) {
        AesBlock block, orig;
        rng.fill(block);
        orig = block;
        aes.encryptBlock(block.data());
        EXPECT_NE(block, orig);
        aes.decryptBlock(block.data());
        EXPECT_EQ(block, orig);
    }
}

// ---------------------------------------------------------------- XEX

class XexTest : public ::testing::Test
{
  protected:
    XexTest() : rng_(77)
    {
        rng_.fill(key_);
        rng_.fill(tweak_);
    }

    Rng rng_;
    Aes128Key key_;
    Aes128Key tweak_;
};

TEST_F(XexTest, RoundTrip)
{
    XexCipher xex(key_, tweak_);
    ByteVec data(4096);
    rng_.fill(data);
    ByteVec orig = data;
    xex.encrypt(data, data.data(), 0x100000);
    EXPECT_NE(data, orig);
    xex.decrypt(data, data.data(), 0x100000);
    EXPECT_EQ(data, orig);
}

TEST_F(XexTest, SamePlaintextDifferentAddressDiffers)
{
    // The SEV dedup-hostility property (§7.1): identical plaintext pages
    // at different physical addresses have different ciphertext.
    XexCipher xex(key_, tweak_);
    ByteVec a(4096, 0x41), b(4096, 0x41);
    xex.encrypt(a, a.data(), 0x1000);
    xex.encrypt(b, b.data(), 0x2000);
    EXPECT_NE(a, b);
}

TEST_F(XexTest, WrongAddressFailsToDecrypt)
{
    XexCipher xex(key_, tweak_);
    ByteVec data(64);
    rng_.fill(data);
    ByteVec orig = data;
    xex.encrypt(data, data.data(), 0x1000);
    xex.decrypt(data, data.data(), 0x2000); // remapped by a malicious host
    EXPECT_NE(data, orig);
}

TEST_F(XexTest, LineEncryptMatchesPageEncrypt)
{
    // Encrypting a single 16-byte line at an arbitrary mid-page address
    // must match the corresponding slice of a whole-page encrypt. This
    // pins the O(1) mid-page tweak jump (multiply by x^line_index) to
    // the sequential per-line tweak-doubling chain.
    XexCipher xex(key_, tweak_);
    ByteVec page(4096);
    rng_.fill(page);
    ByteVec whole = page;
    xex.encrypt(whole, whole.data(), 0x7000);
    for (u64 off : {u64{0}, u64{16}, u64{2032}, u64{4080}}) {
        ByteVec line(page.begin() + off, page.begin() + off + 16);
        xex.encrypt(line, line.data(), 0x7000 + off);
        EXPECT_TRUE(std::equal(line.begin(), line.end(),
                               whole.begin() + off))
            << "line at offset " << off;
    }
}

TEST_F(XexTest, UnalignedRangeMatchesPageSlice)
{
    // A multi-line range entering mid-page (the guestWrite RMW path)
    // must also match the whole-page ciphertext slice.
    XexCipher xex(key_, tweak_);
    ByteVec page(8192);
    rng_.fill(page);
    ByteVec whole = page;
    xex.encrypt(whole, whole.data(), 0x30000);
    constexpr u64 kOff = 3000 / 16 * 16; // line-aligned mid-page entry
    constexpr u64 kLen = 4096;           // crosses the page boundary
    ByteVec range(page.begin() + kOff, page.begin() + kOff + kLen);
    xex.encrypt(range, range.data(), 0x30000 + kOff);
    EXPECT_TRUE(
        std::equal(range.begin(), range.end(), whole.begin() + kOff));
}

TEST_F(XexTest, WrongKeyFailsToDecrypt)
{
    XexCipher xex(key_, tweak_);
    Aes128Key other_key = key_;
    other_key[0] ^= 1;
    XexCipher other(other_key, tweak_);
    ByteVec data(64);
    rng_.fill(data);
    ByteVec orig = data;
    xex.encrypt(data, data.data(), 0x1000);
    other.decrypt(data, data.data(), 0x1000);
    EXPECT_NE(data, orig);
}

/** GF(2^128) doubling on the little-endian tweak bytes, bit by bit. */
void
doubleTweakBytes(AesBlock &t)
{
    u8 carry = 0;
    for (u8 &b : t) {
        u8 next = b >> 7;
        b = static_cast<u8>((b << 1) | carry);
        carry = next;
    }
    if (carry != 0) {
        t[0] ^= 0x87;
    }
}

/**
 * Reference XEX, one line at a time from the block cipher alone: the
 * page's tweak E_k2(page address), doubled once per line before @p in's
 * line, around one encryptBlock/decryptBlock per line.
 */
ByteVec
referenceXex(const Aes128Key &key, const Aes128Key &tweak_key, ByteSpan in,
             u64 addr, bool decrypt)
{
    Aes128 data(key);
    Aes128 tweak(tweak_key);
    ByteVec out(in.begin(), in.end());
    for (u64 off = 0; off < out.size(); off += 16) {
        u64 line = addr + off;
        AesBlock t = {};
        storeLe<u64>(t.data(), alignDown(line, kPageSize));
        tweak.encryptBlock(t.data());
        for (u64 i = 0; i < (line % kPageSize) / 16; ++i) {
            doubleTweakBytes(t);
        }
        u8 *block = out.data() + off;
        for (int i = 0; i < 16; ++i) {
            block[i] ^= t[i];
        }
        if (decrypt) {
            data.decryptBlock(block);
        } else {
            data.encryptBlock(block);
        }
        for (int i = 0; i < 16; ++i) {
            block[i] ^= t[i];
        }
    }
    return out;
}

TEST(XexKernel, OutOfPlaceInPlaceAndReferenceAgree)
{
    // Unaligned starts within a page, lengths from one line to three
    // pages, page crossings, several random keys.
    Rng rng(2024);
    for (int key_round = 0; key_round < 3; ++key_round) {
        Aes128Key key, tweak;
        rng.fill(key);
        rng.fill(tweak);
        XexCipher xex(key, tweak);
        for (u64 start : {u64{0}, u64{16}, u64{1008}, u64{4080}}) {
            for (u64 len : {u64{16}, u64{48}, u64{4096}, u64{4112},
                            u64{3 * 4096}}) {
                u64 addr = 0x5000000 + key_round * 0x10000 + start;
                ByteVec plain(len);
                rng.fill(plain);
                ByteVec expect = referenceXex(key, tweak, plain, addr, false);

                ByteVec out(len);
                xex.encrypt(plain, out.data(), addr);
                EXPECT_EQ(out, expect) << "start " << start << " len " << len;
                ByteVec in_place = plain;
                xex.encrypt(in_place, in_place.data(), addr);
                EXPECT_EQ(in_place, expect)
                    << "start " << start << " len " << len;

                ByteVec back(len);
                xex.decrypt(out, back.data(), addr);
                EXPECT_EQ(back, plain);
                EXPECT_EQ(referenceXex(key, tweak, out, addr, true), plain);
                xex.decrypt(in_place, in_place.data(), addr);
                EXPECT_EQ(in_place, plain);
            }
        }
    }
}

TEST(XexKernel, AesniAndTableLineLoopsAgree)
{
    if (!Aes128::hardwareAccelerated()) {
        GTEST_SKIP() << "host has no AES-NI";
    }
    Rng rng(99);
    Aes128Key key;
    rng.fill(key);
    Aes128 aes(key);
    detail::Tweak128 t{rng.next(), rng.next()};
    // 1..5 lines cover the single-line remainder around the four-line
    // groups; 255 and 256 are a page less a line and a whole page.
    for (u64 lines : {u64{1}, u64{3}, u64{4}, u64{5}, u64{255}, u64{256}}) {
        for (bool decrypt : {false, true}) {
            ByteVec src(lines * 16);
            rng.fill(src);
            ByteVec hw(src.size()), table(src.size());
            detail::xexLinesAesni(aes, decrypt, src.data(), hw.data(), lines,
                                  t);
            detail::xexLinesTable(aes, decrypt, src.data(), table.data(),
                                  lines, t);
            EXPECT_EQ(hw, table) << lines << " lines, decrypt " << decrypt;
            ByteVec in_place = src;
            detail::xexLinesAesni(aes, decrypt, in_place.data(),
                                  in_place.data(), lines, t);
            EXPECT_EQ(in_place, table);
        }
    }
}

// ------------------------------------------------------ launch digest

TEST(LaunchDigest, DeterministicChain)
{
    LaunchDigest a, b;
    Sha256Digest page = Sha256::digest(asBytes("verifier page"));
    a.extend(MeasuredPageType::kNormal, 0x1000, page);
    b.extend(MeasuredPageType::kNormal, 0x1000, page);
    EXPECT_EQ(a.value(), b.value());
}

TEST(LaunchDigest, OrderMatters)
{
    Sha256Digest p1 = Sha256::digest(asBytes("one"));
    Sha256Digest p2 = Sha256::digest(asBytes("two"));
    LaunchDigest a, b;
    a.extend(MeasuredPageType::kNormal, 0x1000, p1);
    a.extend(MeasuredPageType::kNormal, 0x2000, p2);
    b.extend(MeasuredPageType::kNormal, 0x2000, p2);
    b.extend(MeasuredPageType::kNormal, 0x1000, p1);
    EXPECT_NE(a.value(), b.value());
}

TEST(LaunchDigest, GpaMatters)
{
    Sha256Digest p = Sha256::digest(asBytes("page"));
    LaunchDigest a, b;
    a.extend(MeasuredPageType::kNormal, 0x1000, p);
    b.extend(MeasuredPageType::kNormal, 0x2000, p);
    EXPECT_NE(a.value(), b.value());
}

TEST(LaunchDigest, PageTypeMatters)
{
    Sha256Digest p = Sha256::digest(asBytes("page"));
    LaunchDigest a, b;
    a.extend(MeasuredPageType::kNormal, 0x1000, p);
    b.extend(MeasuredPageType::kZero, 0x1000, p);
    EXPECT_NE(a.value(), b.value());
}

TEST(LaunchDigest, ExtendRegionPadsTailPage)
{
    // 4097 bytes => two pages, the second mostly zero-padded.
    ByteVec data(4097, 0xcc);
    LaunchDigest ld;
    EXPECT_EQ(ld.extendRegion(MeasuredPageType::kNormal, 0x8000, data), 2u);

    // Manually: page 1 is 4096 x 0xcc; page 2 is 0xcc then zeros.
    LaunchDigest manual;
    ByteVec page1(4096, 0xcc);
    ByteVec page2(4096, 0);
    page2[0] = 0xcc;
    manual.extend(MeasuredPageType::kNormal, 0x8000, Sha256::digest(page1));
    manual.extend(MeasuredPageType::kNormal, 0x9000, Sha256::digest(page2));
    EXPECT_EQ(ld.value(), manual.value());
}

TEST(LaunchDigest, EmptyRegionNoOp)
{
    LaunchDigest ld;
    Sha256Digest before = ld.value();
    EXPECT_EQ(ld.extendRegion(MeasuredPageType::kNormal, 0, {}), 0u);
    EXPECT_EQ(ld.value(), before);
}

} // namespace
} // namespace sevf::crypto
