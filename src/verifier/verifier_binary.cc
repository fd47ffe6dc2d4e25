#include "verifier/verifier_binary.h"

#include <cstring>

#include "base/logging.h"
#include "base/rng.h"

namespace sevf::verifier {

namespace {

ByteVec
makeImage(u64 size, u64 seed)
{
    static constexpr char kBanner[] = "SEVF-BOOT-VERIFIER v1";
    static_assert(sizeof(kBanner) == kMinVerifierBinarySize);
    SEVF_CHECK(size >= sizeof(kBanner));
    ByteVec image(size);
    Rng rng(seed);
    rng.fill(image);
    std::memcpy(image.data(), kBanner, sizeof(kBanner));
    return image;
}

} // namespace

const ByteVec &
verifierBinary()
{
    static const ByteVec image = makeImage(kVerifierBinarySize, 0x13b007);
    return image;
}

ByteVec
bloatedVerifierBinary(u64 size)
{
    return makeImage(size, 0xb10a7);
}

} // namespace sevf::verifier
