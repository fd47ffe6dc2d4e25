/**
 * @file
 * The Platform Security Processor device model.
 *
 * Implements the SEV-SNP launch command flow of §2.4/Fig 1: per-guest
 * contexts with a launch state machine, VEK generation, page
 * measurement + in-place encryption for LAUNCH_UPDATE_DATA, launch
 * finalization, and signed attestation-report generation. Everything is
 * functional (real hashes, real encryption); the PSP's single-core
 * serialization is timing, expressed by charging StepKind::kPsp steps
 * in the boot traces and replaying them through sim::FifoResource.
 */
#ifndef SEVF_PSP_PSP_H_
#define SEVF_PSP_PSP_H_

#include <condition_variable>
#include <map>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/rng.h"
#include "base/thread_annotations.h"
#include "check/protocol.h"
#include "crypto/measurement.h"
#include "fault/retry.h"
#include "memory/guest_memory.h"
#include "psp/attestation_report.h"
#include "psp/key_server.h"
#include "taint/taint.h"

namespace sevf::psp {

/** Handle to a per-guest PSP context. */
using GuestHandle = u32;

/**
 * FIFO admission gate modeling the PSP's single command queue: callers
 * take a ticket and are served strictly in arrival order, so under
 * concurrent launches no guest's command stream can starve another's
 * (the queue-fairness half of the Fig 12 bottleneck; the latency half
 * is charged as StepKind::kPsp virtual time). Every public Psp method
 * holds a Turn for its full duration, which also makes the device
 * model's internal state safe under the concurrent launch queue
 * (service/launch_service.h).
 */
class TicketGate
{
  public:
    /** RAII: blocks in the constructor until this caller's turn. */
    class Turn
    {
      public:
        explicit Turn(TicketGate &gate) : gate_(gate) { gate_.enter(); }
        ~Turn() { gate_.leave(); }
        Turn(const Turn &) = delete;
        Turn &operator=(const Turn &) = delete;

      private:
        TicketGate &gate_;
    };

  private:
    void enter();
    void leave();

    base::Mutex mu_;
    std::condition_variable turn_;
    u64 next_ticket_ SEVF_GUARDED_BY(mu_) = 0;
    u64 serving_ SEVF_GUARDED_BY(mu_) = 0;
};

/**
 * Deterministic initial VMSA page for @p vcpu_index under @p policy:
 * what LAUNCH_UPDATE_VMSA measures. Exposed so the guest owner's
 * expected-measurement tool reproduces the same bytes.
 */
ByteVec synthesizeVmsa(u32 vcpu_index, u32 policy);

/** Launch state machine (subset of the SNP GCTX states). */
enum class LaunchState {
    kStarted,   //!< LAUNCH_START done; LAUNCH_UPDATE_DATA legal
    kFinished,  //!< LAUNCH_FINISH done; reports may be requested
};

class Psp
{
  public:
    /**
     * @param chip_id unique platform identity
     * @param key_server KDS to provision this chip's signing key with
     * @param seed deterministic source for key generation
     */
    Psp(std::string chip_id, KeyServer &key_server, u64 seed);

    Psp(const Psp &) = delete;
    Psp &operator=(const Psp &) = delete;

    const std::string &chipId() const { return chip_id_; }

    /**
     * Retry budget for transient (kUnavailable) command failures — the
     * injected-fault model of a busy PSP mailbox. Each launch command
     * retries under this policy with exponential backoff charged to the
     * sevf_retry_* metrics; the default allows 3 attempts. Faults are
     * injected before the device model touches guest state, so a retry
     * never re-extends the launch-digest chain.
     */
    void setRetryPolicy(const fault::RetryPolicy &policy);
    fault::RetryPolicy retryPolicy() const;

    /** Allocate a fresh ASID for a new guest (KVM does this pre-launch). */
    u32 allocateAsid();

    /**
     * SNP_LAUNCH_START: create the guest context, generate its VEK, and
     * attach the encryption engine to @p mem. @p mem's ASID identifies
     * the guest from here on.
     */
    Result<GuestHandle> launchStart(memory::GuestMemory &mem, u32 policy);

    /**
     * FUTURE-WORK EXTENSION (paper §6.2): launch with a shared platform
     * key instead of a fresh VEK, skipping per-guest key generation to
     * relieve the single-core PSP. This deliberately weakens the trust
     * model - guests sharing the key share a cryptographic domain (see
     * the keyshare tests/bench for the consequences) - which is exactly
     * the trade-off the paper flags.
     */
    Result<GuestHandle> launchStartShared(memory::GuestMemory &mem,
                                          u32 policy);

    /**
     * SNP_LAUNCH_UPDATE (page type NORMAL): measure @p len bytes at
     * @p gpa into the launch digest and encrypt them in place. Pages
     * arrive in the guest assigned + validated.
     */
    Status launchUpdateData(GuestHandle handle, memory::GuestMemory &mem,
                            Gpa gpa, u64 len);

    /**
     * SNP_LAUNCH_UPDATE replaying pre-computed page digests (the
     * template-cache warm path): extends the launch-digest chain from
     * @p page_digests — which MUST be crypto::pageContentDigests of the
     * staged plaintext — instead of re-hashing @p len bytes at @p gpa,
     * then encrypts the pages in place exactly like launchUpdateData.
     *
     * Trust story: the digests come from the untrusted host, like the
     * staged bytes themselves. Wrong digests produce a wrong launch
     * measurement, which attestation rejects — the identical failure
     * mode as staging wrong bytes, so this path widens no trust
     * boundary. The conformance automaton observes it as an ordinary
     * LAUNCH_UPDATE_DATA.
     */
    Status launchUpdateDataPremeasured(
        GuestHandle handle, memory::GuestMemory &mem, Gpa gpa, u64 len,
        const std::vector<crypto::Sha256Digest> &page_digests);

    /**
     * LAUNCH_UPDATE_VMSA (SEV-ES/SNP): measure + encrypt the vCPU's
     * initial register state so a malicious host cannot pick the guest
     * entry context. The VMSA page is synthesized from the vCPU index
     * and policy.
     */
    Status launchUpdateVmsa(GuestHandle handle, memory::GuestMemory &mem,
                            u32 vcpu_index, Gpa vmsa_gpa);

    /** Current launch digest (LAUNCH_MEASURE). */
    Result<crypto::Sha256Digest> launchMeasure(GuestHandle handle) const;

    /**
     * SNP_LAUNCH_FINISH: lock the measurement. Further
     * launchUpdateData calls fail with kInvalidState - the property
     * that stops a host from encrypting extra memory post-attestation.
     */
    Status launchFinish(GuestHandle handle);

    /**
     * MSG_REPORT_REQ from the guest: a signed report over the locked
     * launch digest and @p report_data. Only legal after LAUNCH_FINISH.
     */
    Result<AttestationReport> guestRequestReport(
        GuestHandle handle, const ReportData &report_data) const;

    /** Number of LAUNCH_UPDATE_DATA pages measured for @p handle. */
    Result<u64> measuredPageCount(GuestHandle handle) const;

    /**
     * Conformance debug hook: every launch command this PSP handled,
     * with its verdict, in order. A live check::LaunchProtocol monitor
     * panics the instant the device model accepts a command the GCTX
     * automaton forbids, so every test and bench run doubles as a
     * protocol-conformance run; the log lets tests replay the sequence
     * through check::checkCommandLog offline.
     */
    const check::CommandLog &commandLog() const { return command_log_; }
    void clearCommandLog();

  private:
    struct GuestContext {
        LaunchState state = LaunchState::kStarted;
        u32 asid = 0;
        u32 policy = 0;
        crypto::LaunchDigest digest;
        u64 measured_pages = 0;
    };

    Result<GuestContext *> contextFor(GuestHandle handle);
    Result<const GuestContext *> contextFor(GuestHandle handle) const;

    Result<GuestHandle> doLaunchStart(memory::GuestMemory &mem, u32 policy,
                                      bool shared);
    Status doLaunchUpdateData(GuestHandle handle, memory::GuestMemory &mem,
                              Gpa gpa, u64 len);
    Status doLaunchUpdateDataPremeasured(
        GuestHandle handle, memory::GuestMemory &mem, Gpa gpa, u64 len,
        const std::vector<crypto::Sha256Digest> &page_digests);
    Status doLaunchUpdateVmsa(GuestHandle handle, memory::GuestMemory &mem,
                              u32 vcpu_index, Gpa vmsa_gpa);
    Result<crypto::Sha256Digest> doLaunchMeasure(GuestHandle handle) const;
    Status doLaunchFinish(GuestHandle handle);
    Result<AttestationReport> doGuestRequestReport(
        GuestHandle handle, const ReportData &report_data) const;

    /** Record @p verdict for @p cmd and run the live conformance check. */
    void observe(check::PspCommand cmd, GuestHandle handle,
                 const Status &verdict) const;

    /**
     * Single-command-queue gate. Every public method runs under a
     * Turn, so all state below it (contexts, handle/ASID allocators,
     * the command log, the protocol monitor) is only ever touched in
     * FIFO ticket order — the gate IS the lock for this class.
     * Mutable: const queries (measure, report) queue like any command.
     */
    mutable TicketGate gate_;
    /** Transient-error budget for launch commands (gate-serialized). */
    fault::RetryPolicy retry_policy_;
    std::string chip_id_;
    ChipKey chip_key_;
    /** Secret-flow label over chip_key_ for the Psp's lifetime. */
    taint::ScopedLabel chip_key_label_;
    Rng rng_;
    /** Lazily generated shared platform key (future-work extension). */
    bool shared_key_ready_ = false;
    crypto::Aes128Key shared_vek_{};
    crypto::Aes128Key shared_tweak_{};
    taint::ScopedLabel shared_vek_label_;
    taint::ScopedLabel shared_tweak_label_;
    u32 next_asid_ = 1;
    GuestHandle next_handle_ = 1;
    std::map<GuestHandle, GuestContext> guests_;
    /** Mutable: conformance instrumentation also covers const queries. */
    mutable check::CommandLog command_log_;
    mutable check::LaunchProtocol protocol_;
};

} // namespace sevf::psp

#endif // SEVF_PSP_PSP_H_
