/**
 * @file
 * The SEVeriFast boot verifier (§4.1) - the only code in the root of
 * trust.
 *
 * Runs as the first guest code after LAUNCH_FINISH and does exactly
 * four things (Fig 6): validate guest memory (pvalidate sweep), build
 * C-bit identity page tables, perform measured direct boot (copy each
 * plaintext component into encrypted memory, re-hash, compare against
 * the pre-encrypted hash table), and hand off to the kernel. Supports
 * both kernel formats: the bzImage path (a single protected copy; the
 * bootstrap loader decompresses later) and the §5 optimized vmlinux
 * streaming path (ELF header, phdrs, then each PT_LOAD segment copied
 * straight to its run address - no intermediate whole-file copy).
 */
#ifndef SEVF_VERIFIER_BOOT_VERIFIER_H_
#define SEVF_VERIFIER_BOOT_VERIFIER_H_

#include <utility>
#include <vector>

#include "base/status.h"
#include "memory/guest_memory.h"
#include "verifier/boot_hashes.h"

namespace sevf::verifier {

/** Which kernel image format the verifier should load. */
enum class KernelImageKind { kBzImage, kVmlinux };

/** GPAs and sizes handed to the verifier (via pre-encrypted state). */
struct VerifierInputs {
    // Plaintext staging (shared pages written by the VMM, Fig 2 step 3).
    Gpa kernel_staging = 0;
    Gpa initrd_staging = 0;

    // Pre-encrypted pages (arrive assigned+validated via LAUNCH_UPDATE).
    Gpa hash_table_gpa = 0;

    // Private destinations (Fig 2 step 4).
    Gpa kernel_private = 0; //!< bzImage copy target / unused for vmlinux
    Gpa initrd_private = 0;

    /** QEMU/OVMF path only: the cmdline is hashed + staged rather than
     *  pre-encrypted. 0 means "cmdline already in the root of trust"
     *  (the SEVeriFast Fig 7 decision). */
    Gpa cmdline_staging = 0;
    Gpa cmdline_private = 0;

    Gpa page_table_root = 0;
    KernelImageKind kernel_kind = KernelImageKind::kBzImage;
    bool hugepages = true;

    /** Regions that must stay shared (the staging windows). Pages in
     *  these ranges are skipped by the pvalidate sweep. */
    std::vector<std::pair<Gpa, u64>> keep_shared;
};

/** Work counters the timing layer converts into virtual time. */
struct VerifierStats {
    u64 pages_validated = 0;
    u64 bytes_copied = 0;  //!< shared -> private copies
    u64 bytes_hashed = 0;  //!< re-hash of protected components
    u64 pagetable_bytes = 0;
};

/** Successful verification outcome. */
struct VerifiedBoot {
    /** 64-bit kernel entry: the ELF entry for vmlinux; 0 for bzImage
     *  (the bootstrap loader resolves it after decompression). */
    u64 kernel_entry = 0;
    /** Protected kernel image location (bzImage path). */
    Gpa kernel_gpa = 0;
    u64 kernel_size = 0;
    Gpa initrd_gpa = 0;
    u64 initrd_size = 0;
    BootHashes hashes;
    VerifierStats stats;
};

/**
 * Digest the streaming vmlinux path verifies against: one running
 * SHA-256 over exactly the transferred bytes (ELF header || phdr table
 * || each PT_LOAD's file bytes, in order). The out-of-band hash tool
 * computes this for vmlinux kernels instead of a whole-file hash.
 */
Result<crypto::Sha256Digest> vmlinuxStreamDigest(ByteSpan vmlinux);

class BootVerifier
{
  public:
    explicit BootVerifier(memory::GuestMemory &mem) : mem_(mem) {}

    BootVerifier(const BootVerifier &) = delete;
    BootVerifier &operator=(const BootVerifier &) = delete;

    /**
     * Execute the full verifier flow. Fails with kIntegrityFailure when
     * a component hash mismatches (a §2.6 attack) and kAccessDenied
     * when expected pre-encrypted state is missing (#VC).
     */
    Result<VerifiedBoot> run(const VerifierInputs &inputs);

  private:
    /** pvalidate every page outside keep_shared; returns pages touched. */
    Result<u64> validateMemory(const VerifierInputs &inputs);

    /**
     * Copy [staging, staging+len) to private @p dest, feeding @p hash
     * exactly the bytes it encrypts: every host-shared byte is read
     * once, into bounce_.
     */
    Status copyAndHash(Gpa staging, Gpa dest, u64 len, crypto::Sha256 &hash,
                       VerifierStats &stats);

    /** copyAndHash one whole component; returns its digest. */
    Result<crypto::Sha256Digest> protectAndHash(Gpa staging, Gpa dest,
                                                u64 len,
                                                VerifierStats &stats);

    /** The §5 streaming ELF loader. Returns the entry point. */
    Result<u64> streamVmlinux(const VerifierInputs &inputs,
                              const BootHashes &hashes,
                              VerifierStats &stats);

    memory::GuestMemory &mem_;
    /** The one buffer shared chunks are fetched into (kCopyChunk). */
    ByteVec bounce_;
};

} // namespace sevf::verifier

#endif // SEVF_VERIFIER_BOOT_VERIFIER_H_
