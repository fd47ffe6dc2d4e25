#include "service/launch_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "base/parallel.h"
#include "cache/template_cache.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sevf::service {

namespace {

inline constexpr const char *kShedHelp =
    "Launches rejected with kBackpressure instead of queueing";
inline constexpr const char *kQuotaHelp =
    "Launches rejected with kQuotaExceeded (per-tenant quota)";
inline constexpr const char *kSubmittedHelp =
    "Launches submitted through the launch service, per tenant";
inline constexpr const char *kCompletedHelp =
    "Launch-service launches that booted successfully, per tenant";
inline constexpr const char *kFailedHelp =
    "Launch-service launches that failed after dispatch, per tenant";
inline constexpr const char *kRejectedHelp =
    "Launch-service launches rejected before dispatch (unknown tenant, "
    "quota, shed, injected fault, shutdown), per tenant";
inline constexpr const char *kLatencyHelp =
    "Submit-to-resolution wall nanoseconds, per tenant";
inline constexpr const char *kAdmittedHelp =
    "Launches admitted to the launch queue";
inline constexpr const char *kDepthHelp =
    "Launches waiting in the launch queue (peak)";
inline constexpr const char *kDoneHelp =
    "Launches completed by the launch queue";
inline constexpr const char *kQueueWaitHelp =
    "Wall nanoseconds a launch waited for a worker";

} // namespace

LaunchService::TenantMetrics
LaunchService::TenantMetrics::forTenant(const std::string &tenant)
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Labels labels{{"tenant", tenant}};
    return {
        &reg.counter("sevf_service_submitted_total", kSubmittedHelp, labels),
        &reg.counter("sevf_service_completed_total", kCompletedHelp, labels),
        &reg.counter("sevf_service_failed_total", kFailedHelp, labels),
        &reg.counter("sevf_service_rejected_total", kRejectedHelp, labels),
        &reg.histogram("sevf_service_latency_ns", kLatencyHelp,
                       obs::defaultTimeBoundsNs(), labels),
    };
}

LaunchService::LaunchService(core::Platform &platform,
                             TenantRegistry &registry, ServiceConfig config)
    : platform_(platform), registry_(registry),
      queue_limit_(config.queue_depth == 0 ? 1 : config.queue_depth),
      shed_on_full_(config.shed_on_full),
      shed_total_(obs::Registry::instance().counter(
          "sevf_admission_shed_total", kShedHelp)),
      quota_total_(obs::Registry::instance().counter(
          "sevf_admission_rejected_quota_total", kQuotaHelp)),
      admitted_total_(obs::Registry::instance().counter(
          "sevf_admission_submitted_total", kAdmittedHelp)),
      queue_depth_(obs::Registry::instance().gauge(
          "sevf_admission_queue_depth", kDepthHelp)),
      completed_total_(obs::Registry::instance().counter(
          "sevf_admission_completed_total", kDoneHelp)),
      queue_wait_(obs::Registry::instance().histogram(
          "sevf_admission_queue_wait_ns", kQueueWaitHelp,
          obs::defaultTimeBoundsNs()))
{
    applyQuotas();
    unsigned n = config.workers != 0
                     ? config.workers
                     : std::clamp(base::hardwareThreads(), 2u, 8u);
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        threads_.emplace_back([this] { workerLoop(); });
    }
}

LaunchService::~LaunchService()
{
    // stopping_ is set BEFORE the drain and space_ is notified along
    // with work_: a submitter blocked on a full queue re-checks
    // stopping_ and bails with a typed error instead of waiting on a
    // notify that would never come (draining first would let a
    // submitter that lost the wakeup race sleep in space_.wait forever).
    {
        base::MutexLock lock(mu_);
        stopping_ = true;
    }
    space_.notify_all();
    work_.notify_all();
    drain();
    work_.notify_all();
    for (std::thread &t : threads_) {
        t.join();
    }
}

Status
LaunchService::registerTenant(const std::string &id, TenantQuota quota)
{
    Status registered = registry_.registerTenant(id, quota);
    if (!registered.isOk()) {
        return registered;
    }
    applyQuotas();
    return Status::ok();
}

void
LaunchService::applyQuotas()
{
    u64 total_share = 0;
    for (const std::string &id : registry_.ids()) {
        std::optional<TenantQuota> quota = registry_.quota(id);
        if (!quota.has_value()) {
            continue; // racing re-registration; next applyQuotas catches up
        }
        {
            base::MutexLock lock(mu_);
            sched_.setLimits(id, *quota);
        }
        (void)tenantMetrics(id);
        total_share += quota->cache_share_bytes;
    }
    // A raised in-flight cap may make parked jobs dispatchable.
    work_.notify_all();
    if (total_share == 0) {
        return; // no tenant bought cache bytes: keep the default budget
    }
    cache::TemplateCache &cache = platform_.templateCache();
    cache.setCapacityBytes(total_share);
    // Per-shard cap: the fair slice times 2. Keys are SHA-256 hex, so
    // shard occupancy concentrates around total/shards; the slack
    // absorbs binomial skew while still preventing one hot shard from
    // pinning the whole budget (the global LRU handles the rest).
    u64 shards = cache.shardCount();
    cache.setShardCapacityBytes((total_share / shards) * 2 + 1);
}

LaunchService::TenantMetrics
LaunchService::tenantMetrics(const std::string &tenant)
{
    {
        base::MutexLock lock(mu_);
        auto it = tenant_metrics_.find(tenant);
        if (it != tenant_metrics_.end()) {
            return it->second;
        }
    }
    // Resolved outside mu_, so the registry lock never nests under it.
    TenantMetrics resolved = TenantMetrics::forTenant(tenant);
    base::MutexLock lock(mu_);
    tenant_metrics_.try_emplace(tenant, resolved);
    return resolved;
}

std::shared_ptr<core::LaunchTicket>
LaunchService::submit(const std::string &tenant, core::StrategyKind kind,
                      core::LaunchRequest request)
{
    SEVF_SPAN("service.enqueue");
    auto ticket = std::make_shared<core::LaunchTicket>();
    TenantMetrics metrics;
    u64 submit_ns = 0;
    // Every resolution on this path means the launch never ran, so it
    // counts as rejected whatever its error code.
    auto reject = [&](Status error) {
        metrics.rejected->add();
        if (submit_ns != 0) { // submitted, then refused: time it
            metrics.latency->observe(obs::wallNowNs() - submit_ns);
        }
        ticket->complete(std::move(error));
        return ticket;
    };

    if (!registry_.quota(tenant).has_value()) {
        // Counted by name: an unknown tenant gets no cached handles.
        metrics.rejected = &obs::Registry::instance().counter(
            "sevf_service_rejected_total", kRejectedHelp, {{"tenant", tenant}});
        return reject(
            errNotFound("unknown tenant \"" + tenant + "\"" +
                        ": register it before submitting launches"));
    }
    metrics = tenantMetrics(tenant);
    Status admitted = fault::FaultInjector::instance().check(
        fault::FaultSite::kServiceEnqueue, "service submit: " + tenant);
    if (!admitted.isOk()) {
        return reject(std::move(admitted));
    }
    metrics.submitted->add();
    submit_ns = obs::wallNowNs();

    Job job;
    job.kind = kind;
    job.request = std::move(request);
    job.request.host_threads = 1;
    job.ticket = ticket;
    job.tenant = tenant;
    job.metrics = metrics;
    job.submit_ns = submit_ns;

    // Load shedding: an injected enqueue fault (deterministic tests) or
    // a full queue under shed_on_full resolves the ticket right here
    // with a typed, retryable-by-the-caller backpressure error.
    bool shed = !fault::FaultInjector::instance()
                     .check(fault::FaultSite::kAdmissionEnqueue,
                            "launch admission")
                     .isOk();
    bool quota_rejected = false;
    bool shutting_down = false;
    u64 depth = 0;
    {
        base::MutexLock lock(mu_);
        if (!shed && shed_on_full_ && sched_.size() >= queue_limit_) {
            shed = true;
        }
        if (shed) {
            stats_.shed++;
        } else {
            while (sched_.size() >= queue_limit_ && !stopping_) {
                space_.wait(lock.native());
            }
            if (stopping_) {
                // Shutdown race: the service is being destroyed; no
                // worker will ever pop a late enqueue, so fail the
                // ticket with a typed error instead of wedging it.
                shutting_down = true;
            } else if (sched_.push(tenant, std::move(job)) ==
                       DrrScheduler<Job>::Push::kQuotaExceeded) {
                quota_rejected = true;
                stats_.rejected_quota++;
            } else {
                depth = sched_.size();
                stats_.submitted++;
                stats_.peak_queue_depth =
                    std::max<u64>(stats_.peak_queue_depth, depth);
            }
        }
    }
    if (shed) {
        shed_total_.add();
        return reject(errBackpressure(
            "admission queue full: launch shed, retry later"));
    }
    if (shutting_down) {
        return reject(errUnavailable(
            "launch service shutting down: launch not admitted"));
    }
    if (quota_rejected) {
        quota_total_.add();
        return reject(errQuotaExceeded(
            "tenant " + tenant + " over its queued-launch quota"));
    }
    work_.notify_one();
    admitted_total_.add();
    queue_depth_.setMax(static_cast<i64>(depth));
    return ticket;
}

void
LaunchService::drain()
{
    base::MutexLock lock(mu_);
    while (!sched_.idle() || active_ != 0) {
        idle_.wait(lock.native());
    }
}

LaunchService::Stats
LaunchService::stats() const
{
    base::MutexLock lock(mu_);
    return stats_;
}

void
LaunchService::workerLoop()
{
    for (;;) {
        Job job;
        {
            base::MutexLock lock(mu_);
            for (;;) {
                // pop() is nullopt both when nothing is queued and when
                // every queued tenant sits at its in-flight cap; either
                // way a completion or an enqueue re-notifies work_.
                std::optional<Job> next = sched_.pop();
                if (next.has_value()) {
                    job = std::move(*next);
                    break;
                }
                if (stopping_ && sched_.idle()) {
                    return;
                }
                work_.wait(lock.native());
            }
            active_++;
        }
        space_.notify_one();
        if (obs::metricsEnabled()) {
            queue_wait_.observe(obs::wallNowNs() - job.submit_ns);
        }

        // Strategies are stateless (core/launch.h): a temporary per job
        // costs nothing and shares no state with other workers.
        Result<core::LaunchResult> result =
            core::BootStrategy(job.kind).launch(platform_, job.request);

        bool ok = result.isOk();
        // Count completion BEFORE resolving the ticket (a consumer that
        // saw its result must see it counted), and stay active until
        // AFTER (drain() must not return with a ticket still pending).
        {
            base::MutexLock lock(mu_);
            stats_.completed++;
            if (!ok) {
                stats_.failed++;
            }
        }
        // A worker resolves only launches that ran: completed or failed.
        // Counted before active_ drops, so drain() cannot return ahead
        // of the count.
        (ok ? job.metrics.completed : job.metrics.failed)->add();
        completed_total_.add();
        job.metrics.latency->observe(obs::wallNowNs() - job.submit_ns);
        job.ticket->complete(std::move(result));
        {
            base::MutexLock lock(mu_);
            sched_.noteCompleted(job.tenant);
            active_--;
            if (sched_.idle() && active_ == 0) {
                idle_.notify_all();
            }
        }
        // The freed in-flight slot may unblock a capped tenant's job.
        work_.notify_all();
    }
}

} // namespace sevf::service
