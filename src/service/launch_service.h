/**
 * @file
 * Multi-tenant launch service: the concurrent-launch queue (the Fig 12
 * serving path) over the platform's sharded template cache.
 *
 * A fixed pool of worker threads drains a bounded, tenant-aware queue
 * of launch requests. Admission control is the bounded queue itself:
 * submit() blocks while the queue is full, so a burst of invocations
 * applies back-pressure instead of piling up unboundedly. Dispatch is
 * weighted deficit round robin over per-tenant sub-queues
 * (service/drr_scheduler.h), programmed from the TenantRegistry quotas
 * (weight, max_in_flight, max_queued): one flooding tenant gets its
 * weighted share of workers instead of the whole pool, and a tenant
 * over its queued-launch quota is rejected with a typed kQuotaExceeded.
 *
 * Stage overlap falls out of the concurrency model: while one launch
 * serializes through the PSP command gate (psp::TicketGate), other
 * launches run their CPU-side work (staging, hashing, pre-encryption,
 * template capture), which is exactly the PSP/CPU overlap the paper's
 * Fig 12 bottleneck analysis calls for. Identical concurrent requests
 * collapse into one template build via the cache's single-flight
 * claim, and every follower boots warm. Each launch runs with
 * host_threads forced to 1: the service spends the host's parallelism
 * ACROSS launches; within a launch the page-parallel kernels would
 * otherwise contend with sibling workers.
 *
 * The template cache's global byte budget is the sum of registered
 * cache shares, and its per-shard cap is that total spread across the
 * shards with 2x slack (launch keys are SHA-256 prefixes, so shard
 * occupancy is binomial — the slack keeps a mildly skewed shard from
 * thrashing while still bounding how much of the budget any one shard
 * can pin; docs/SERVICE.md).
 *
 * Per-tenant observability: sevf_service_submitted/completed/failed/
 * rejected_total{tenant=...} counters plus a sevf_service_latency_ns
 * {tenant=...} histogram of submit-to-resolution wall time, recorded
 * where the ticket resolves — a ticket resolved on the submit path
 * never ran and counts as rejected, one resolved by a worker counts as
 * completed or failed. The "service.enqueue" span marks each submit on
 * the wall track. All families are registered eagerly when a tenant
 * registers, so exports list them zero-valued and the obscheck
 * doc-drift gate covers them (tools/sevf_obscheck.cc --service).
 *
 * The whole service layer stays OUTSIDE the measured TCB: it decides
 * when launches run and who pays for cache bytes, never what gets
 * measured (tools/ci.sh stage [tcb] asserts src/service/ is not
 * reachable from the attestation entry points).
 */
#ifndef SEVF_SERVICE_LAUNCH_SERVICE_H_
#define SEVF_SERVICE_LAUNCH_SERVICE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "core/launch.h"
#include "core/platform.h"
#include "obs/metrics.h"
#include "service/drr_scheduler.h"
#include "service/tenant.h"

namespace sevf::service {

struct ServiceConfig {
    /** Worker threads; 0 = clamp(base::hardwareThreads(), 2, 8). */
    unsigned workers = 0;
    /** Global queue slots; submit() blocks while this many wait. */
    std::size_t queue_depth = 32;
    /**
     * Load shedding: when true, a submit() that finds the queue full
     * resolves its ticket immediately with a typed kBackpressure error
     * instead of blocking — the caller is told to retry later rather
     * than silently queueing into an overload.
     */
    bool shed_on_full = false;
};

/**
 * The service. Destruction drains the queue (every submitted ticket
 * resolves) before joining the workers.
 */
class LaunchService
{
  public:
    struct Stats {
        u64 submitted = 0;
        u64 completed = 0;
        u64 failed = 0;
        u64 peak_queue_depth = 0;
        /** Launches rejected with kBackpressure instead of queueing. */
        u64 shed = 0;
        /** Launches rejected with kQuotaExceeded (per-tenant cap). */
        u64 rejected_quota = 0;
    };

    /** The registry may be pre-populated; its quotas are applied to the
     *  scheduler and the cache budgets immediately. */
    LaunchService(core::Platform &platform, TenantRegistry &registry,
                  ServiceConfig config = {});
    ~LaunchService();

    LaunchService(const LaunchService &) = delete;
    LaunchService &operator=(const LaunchService &) = delete;

    /**
     * Register @p id (or update its quota) and re-derive the scheduler
     * limits and cache budgets. Forwards TenantRegistry's validation
     * errors (empty id, zero weight).
     */
    Status registerTenant(const std::string &id, TenantQuota quota);

    /**
     * Submit one launch on behalf of @p tenant. The ticket always
     * resolves: with the boot result, or with a typed error —
     * kNotFound (unknown tenant), kUnavailable (injected
     * service-enqueue fault, or shutdown while blocked on a full
     * queue), kBackpressure (injected admission fault, or a full queue
     * under shed_on_full), kQuotaExceeded (over max_queued). Blocks
     * only while the GLOBAL queue is full (per-tenant quota rejects
     * immediately). @p request's host_threads is overridden to 1.
     */
    std::shared_ptr<core::LaunchTicket>
    submit(const std::string &tenant, core::StrategyKind kind,
           core::LaunchRequest request);

    /** Block until the queue is empty and every worker is idle. */
    void drain();

    Stats stats() const;
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Returns the service itself. Exists only because the benchmark
     *  runner (perfbench/perfbench.cc) still spells
     *  service().pipeline().stats(); it goes away with the next change
     *  to the benchmark. */
    LaunchService &pipeline() { return *this; }

  private:
    /** One tenant's sevf_service_* families, resolved by name once;
     *  the global obs::Registry owns them, so a copy outlives the
     *  service (a submit woken by shutdown still counts through one). */
    struct TenantMetrics {
        /** Register (zero-valued) and resolve @p tenant's families. */
        static TenantMetrics forTenant(const std::string &tenant);

        obs::Counter *submitted = nullptr;
        obs::Counter *completed = nullptr;
        obs::Counter *failed = nullptr;
        obs::Counter *rejected = nullptr;
        obs::Histogram *latency = nullptr;
    };

    struct Job {
        core::StrategyKind kind = core::StrategyKind::kStockFirecracker;
        core::LaunchRequest request;
        std::shared_ptr<core::LaunchTicket> ticket;
        std::string tenant;
        TenantMetrics metrics;
        u64 submit_ns = 0;
    };

    /** Push registry quotas into the scheduler and the cache budgets. */
    void applyQuotas();
    /** @p tenant's handles, resolved on first use. */
    TenantMetrics tenantMetrics(const std::string &tenant);
    void workerLoop();

    core::Platform &platform_;
    TenantRegistry &registry_;
    std::size_t queue_limit_;
    bool shed_on_full_;
    // Registered in the constructor, so the admission families appear
    // (zero-valued) in every export and the obscheck doc gates cover
    // the rejection counters on fault-free runs; resolved once, so no
    // launch takes the registry lock for them.
    obs::Counter &shed_total_;
    obs::Counter &quota_total_;
    obs::Counter &admitted_total_;
    obs::Gauge &queue_depth_;
    obs::Counter &completed_total_;
    obs::Histogram &queue_wait_;

    mutable base::Mutex mu_;
    std::condition_variable space_; //!< queue has a free slot / stopping
    std::condition_variable work_;  //!< dispatchable job / stopping
    std::condition_variable idle_;  //!< queue empty and no job running
    DrrScheduler<Job> sched_ SEVF_GUARDED_BY(mu_);
    unsigned active_ SEVF_GUARDED_BY(mu_) = 0;
    bool stopping_ SEVF_GUARDED_BY(mu_) = false;
    Stats stats_ SEVF_GUARDED_BY(mu_);
    std::map<std::string, TenantMetrics> tenant_metrics_
        SEVF_GUARDED_BY(mu_);

    std::vector<std::thread> threads_;
};

} // namespace sevf::service

#endif // SEVF_SERVICE_LAUNCH_SERVICE_H_
