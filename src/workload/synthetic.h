/**
 * @file
 * Deterministic synthetic boot artifacts (see DESIGN.md substitutions).
 *
 * Real guest kernels are unavailable in this environment, so we
 * synthesize vmlinux/bzImage/initrd files with the paper's exact
 * artifact sizes (Fig 8) and pinned compressibility, as real ELF /
 * boot-protocol / CPIO files that the project's own parsers and loaders
 * consume. Every boot-path cost the paper measures is a function of
 * size, structure, and compressibility - all reproduced here.
 */
#ifndef SEVF_WORKLOAD_SYNTHETIC_H_
#define SEVF_WORKLOAD_SYNTHETIC_H_

#include "base/status.h"
#include "base/types.h"
#include "workload/kernel_spec.h"

namespace sevf::workload {

/**
 * Bytes whose LZ4 compressibility is controlled by @p random_fraction:
 * 0.0 compresses to a few percent, 1.0 is incompressible. Deterministic
 * in @p seed.
 */
ByteVec compressibleBytes(u64 size, double random_fraction, u64 seed);

/** A generated kernel with both boot formats. */
struct KernelArtifacts {
    KernelSpec spec;
    double scale = 1.0;
    ByteVec vmlinux;     //!< ELF64 file, parseable by image::parseElf
    ByteVec bzimage;     //!< LZ4 bzImage, parseable by image::parseBzImage
    u64 entry = 0;       //!< kernel entry point inside the ELF
};

/**
 * Cached artifacts: built once per (config, scale) per process. The
 * bench harness boots hundreds of VMs from the same kernel, mirroring
 * the paper's warm-buffer-cache methodology (§6.1).
 *
 * @param scale in (0, 1], multiplies the sizes (tests shrink them).
 *        Compressibility comes from a pinned table's column for the
 *        smallest power of two >= @p scale (1/64 below that); one fixed
 *        seed per config, so the bytes are deterministic.
 */
const KernelArtifacts &cachedKernelArtifacts(KernelConfig config,
                                             double scale = 1.0);

/**
 * The attestation initrd (§2.4): a CPIO newc archive with /init, the
 * sev-guest module, attestation scripts, and a mostly-incompressible
 * payload (the real initrd only LZ4s 14 MiB -> ~12 MiB, §3.2).
 */
ByteVec syntheticInitrd(u64 uncompressed_size, u64 seed);

/** Cached initrd at the paper's size (kInitrdUncompressedSize). */
const ByteVec &cachedInitrd(double scale = 1.0);

/**
 * An OVMF-like firmware volume (~1 MiB, §3.1) - the blob the QEMU
 * baseline must pre-encrypt.
 */
ByteVec firmwareBlob(u64 size, u64 seed);

} // namespace sevf::workload

#endif // SEVF_WORKLOAD_SYNTHETIC_H_
