/**
 * @file
 * The SEVeriFast public API: boot strategies and launch results.
 *
 * A BootStrategy runs one cold boot end to end - functionally (real
 * staging, pre-encryption, verification, decompression, attestation)
 * while charging virtual time into a BootTrace. Five strategies cover
 * the paper's comparison space:
 *
 *  - kStockFirecracker: non-SEV direct boot baseline (§2.1)
 *  - kQemuOvmfSev:      the QEMU/OVMF state of the art (§2.5, Fig 3)
 *  - kSevDirectBoot:    pre-encrypt the whole kernel (§3.2 strawman)
 *  - kSeveriFastBz:     SEVeriFast with an LZ4 bzImage (§4, the design)
 *  - kSeveriFastVmlinux: SEVeriFast with the §5 streaming ELF loader
 */
#ifndef SEVF_CORE_LAUNCH_H_
#define SEVF_CORE_LAUNCH_H_

#include <condition_variable>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

// Forward declarations to keep the header light.
namespace sevf::vmm {
class MicroVm;
}

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "cache/launch_key.h"
#include "compress/codec.h"
#include "memory/sev_mode.h"
#include "core/platform.h"
#include "crypto/sha256.h"
#include "sim/trace.h"
#include "verifier/boot_verifier.h"
#include "vmm/debug_port.h"
#include "vmm/vm_config.h"
#include "workload/kernel_spec.h"

namespace sevf::core {

enum class StrategyKind {
    kStockFirecracker,
    kQemuOvmfSev,
    kSevDirectBoot,
    kSeveriFastBz,
    kSeveriFastVmlinux,
};

const char *strategyName(StrategyKind kind);

/** Everything a launch needs. */
struct LaunchRequest {
    workload::KernelConfig kernel = workload::KernelConfig::kAws;
    /** Artifact scale: 1.0 for paper-sized benches, smaller for tests. */
    double scale = 1.0;
    vmm::VmConfig vm;
    /** Run remote attestation after boot (skipped automatically for
     *  kernels without networking, like Lupine - §6.1). */
    bool attest = true;
    /** §4.3 out-of-band hashing; false re-adds the VMM hash time. */
    bool out_of_band_hashing = true;
    /** Codec for the bzImage payload (SEVeriFast/QEMU paths). */
    compress::CodecKind kernel_codec = compress::CodecKind::kLz4;
    /** Codec for the initrd; the paper's Fig 5 answer is kNone. */
    compress::CodecKind initrd_codec = compress::CodecKind::kNone;
    /** Override the boot-verifier binary size (ablation; 0 = the
     *  13 KiB SEVeriFast verifier). */
    u64 verifier_size = 0;
    /** SEV generation for the confidential strategies (§5: the port
     *  supports SEV, SEV-ES, and SEV-SNP guests). */
    memory::SevMode sev_mode = memory::SevMode::kSevSnp;
    /**
     * FUTURE-WORK EXTENSION (§6.2): launch with the shared platform key
     * to relieve the PSP. Weakens the trust model (guests share a
     * cryptographic domain) - see bench_ext_psp_keyshare.
     */
    bool share_platform_key = false;
    /**
     * EXTENSION (§8): guest-side KASLR in the bootstrap loader. The
     * paper notes SEVeriFast breaks in-monitor KASLR; randomizing
     * inside the guest restores it without telling the host the layout.
     */
    bool guest_kaslr = false;
    /** Retain the booted VM in LaunchResult::vm (memory-hungry; used
     *  by the warm-start exploration to inspect guest memory). */
    bool keep_vm = false;
    /** Per-launch determinism (guest ephemeral keys, owner nonces). */
    u64 seed = 1;
    /**
     * Host worker threads for the page-parallel launch pipeline
     * (pre-encryption, measurement page digests, out-of-band hashing,
     * image staging). 0 = inherit the Platform knob; 1 = fully serial.
     * The thread count is invisible in results: measurements,
     * attestation reports, and simulated timings are bit-identical at
     * every value.
     */
    unsigned host_threads = 0;
    /**
     * Consult the platform's launch-template cache: a hit skips image
     * parsing, compression, hashing, and pre-encryption entirely and
     * replays the recorded measurement chain instead (cache/). The
     * result is bit-identical to a cold boot - same measurement, same
     * BootTrace, same timeline; only host wall-clock changes. Launches
     * with guest_kaslr set always boot cold (the slide is per-launch
     * entropy by design).
     */
    bool use_template_cache = true;
};

/** Outcome of one cold boot. */
struct LaunchResult {
    StrategyKind strategy;
    /** Unjittered virtual-time steps; see sim::jitterTrace for CDFs. */
    sim::BootTrace trace;
    /** Debug-port timeline (§6.1 methodology). */
    vmm::DebugPort timeline;

    /** Launch digest (SEV strategies). */
    crypto::Sha256Digest measurement{};
    /** Verifier work counters (SEVeriFast paths). */
    verifier::VerifierStats verifier_stats;
    /** True when remote attestation ran and the secret arrived. */
    bool attested = false;
    u64 provisioned_secret_bytes = 0;
    /** Bytes the PSP measured+encrypted (the root-of-trust payload). */
    u64 pre_encrypted_bytes = 0;
    /** KASLR slide chosen in-guest (0 unless guest_kaslr). */
    u64 kaslr_slide = 0;
    /** The booted VM, retained only when LaunchRequest::keep_vm. */
    std::shared_ptr<vmm::MicroVm> vm;
    /** True when this launch was served from the template cache. */
    bool cache_hit = false;

    /** Total boot time excluding/including attestation. */
    sim::Duration bootTime() const;
    sim::Duration totalTime() const { return trace.total(); }
};

/**
 * Completion handle for one queued launch (service::LaunchService).
 * Single-consumer: take() moves the result out; a second take()
 * returns kInvalidState.
 */
class LaunchTicket
{
  public:
    /** Block until the launch completes, then take its result. */
    Result<LaunchResult>
    take()
    {
        base::MutexLock lock(mu_);
        while (!result_.has_value()) {
            done_.wait(lock.native());
        }
        Result<LaunchResult> out = std::move(*result_);
        // Leave an explicit error behind: ready() stays true, but a
        // second take() must not observe the moved-from launch result.
        result_.emplace(errInvalidState("launch ticket already taken"));
        return out;
    }

    /** True once the result is available (take() will not block). */
    bool
    ready() const
    {
        base::MutexLock lock(mu_);
        return result_.has_value();
    }

    /** Resolve the ticket; called exactly once, by whoever owns it. */
    void
    complete(Result<LaunchResult> result)
    {
        {
            base::MutexLock lock(mu_);
            result_.emplace(std::move(result));
        }
        done_.notify_all();
    }

  private:
    mutable base::Mutex mu_;
    std::condition_variable done_;
    std::optional<Result<LaunchResult>> result_ SEVF_GUARDED_BY(mu_);
};

/**
 * Reject a request no strategy can launch, before any work runs:
 * kInvalidArgument when scale is outside (0, 1], or when verifier_size
 * is neither 0 (the default verifier) nor in [22, 0x1F0000] - at least
 * the verifier banner, and small enough to end below the page tables
 * (vmm/layout.h).
 */
Status validateLaunchRequest(const LaunchRequest &request);

/**
 * A boot scheme. Stateless: the object holds only its kind, and every
 * per-launch value (trace, VM, template-build claim) lives on the
 * stack of launch(), so one instance may serve any number of
 * concurrent launches.
 *
 * All five schemes share one launch skeleton. A kind-specific cold body
 * runs the host and pre-Linux guest work up to the template point -
 * the instant where staging, pre-encryption, measurement, verifier, and
 * bootstrap are done and only the guest boot tail remains. launch()
 * then captures the template (if it won the single-flight build) and
 * runs the one finish step (Linux boot, optional attestation) that
 * warm launches from a cached template share.
 */
class BootStrategy final
{
  public:
    explicit BootStrategy(StrategyKind kind) : kind_(kind) {}

    StrategyKind kind() const { return kind_; }
    std::string_view name() const { return strategyName(kind_); }

    /**
     * Run one boot. Validates the request, installs the effective
     * host-thread count (request knob, falling back to the platform
     * knob) for the duration of the launch, consults the platform's
     * template cache (warm boot on a hit, single-flight template
     * capture on a miss), then runs the strategy cold if no usable
     * template exists.
     */
    Result<LaunchResult> launch(Platform &platform,
                                const LaunchRequest &request) const;

  private:
    StrategyKind kind_;
};

/**
 * The template-cache key for @p request under @p kind: a digest over
 * every input that shapes the prepared launch state - strategy, kernel
 * artifacts (by content digest), codecs, VM shape, SEV mode/policy, and
 * the full cost-parameter set (step durations live in the cached
 * trace). Deliberately excludes attest, seed, keep_vm, and
 * host_threads: none of them affect the template (the attested tail
 * always runs live, and thread count is invisible in results).
 */
cache::LaunchKey buildLaunchKey(const Platform &platform,
                                const LaunchRequest &request,
                                StrategyKind kind);

/** Factory for the five strategies. */
std::unique_ptr<BootStrategy> makeStrategy(StrategyKind kind);

} // namespace sevf::core

#endif // SEVF_CORE_LAUNCH_H_
