/**
 * @file
 * The boot verifier binary image.
 *
 * The real SEVeriFast verifier is a ~13 KiB standalone Rust binary
 * (stripped-down rust-hypervisor-firmware, §5): page-table init,
 * pvalidate sweep, SHA-256, a bzImage loader, and nothing else. Here the
 * binary's *bytes* are a deterministic stand-in (what gets measured into
 * the root of trust), while its *behaviour* is sevf::verifier::BootVerifier.
 * Keeping the image small is the whole point: it is the dominant
 * pre-encrypted payload (Fig 10's ~8 ms).
 */
#ifndef SEVF_VERIFIER_VERIFIER_BINARY_H_
#define SEVF_VERIFIER_VERIFIER_BINARY_H_

#include "base/types.h"

namespace sevf::verifier {

/** The verifier image size (~13 KiB, §4.1). */
inline constexpr u64 kVerifierBinarySize = 13 * kKiB;

/** The smallest image: it must hold the 22-byte banner the image
 *  starts with. */
inline constexpr u64 kMinVerifierBinarySize = 22;

/** Deterministic verifier image ("the bytes the PSP measures"). */
const ByteVec &verifierBinary();

/**
 * A bloated verifier variant for ablation studies: the td-shim-style
 * featureful shim the related-work section warns about (allocator, ACPI
 * tables, event log => bigger binary => longer pre-encryption).
 * @p size must be at least kMinVerifierBinarySize.
 */
ByteVec bloatedVerifierBinary(u64 size);

} // namespace sevf::verifier

#endif // SEVF_VERIFIER_VERIFIER_BINARY_H_
