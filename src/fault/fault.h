/**
 * @file
 * Deterministic, seeded fault injection for the launch pipeline.
 *
 * A FaultPlan is a set of site-keyed rules: each rule targets one
 * FaultSite (PSP command submission, cache disk-tier reads/writes, DRAM
 * mmap, admission enqueue) and fires either probabilistically (seeded
 * Bernoulli per occurrence) or on an exact occurrence window
 * (nth..nth+count-1). Arming the process-wide FaultInjector with a plan
 * makes the instrumented sites consult it; the same plan + seed always
 * injects the same fault sequence, so every chaos run is reproducible
 * from its seed (tests/chaos_test.cc, tools/ci.sh stage [chaos]).
 *
 * Faults are injected BEFORE the faulted operation executes, so an
 * injected failure never leaves partial state behind: a retried PSP
 * command re-runs from scratch, a failed disk read is
 * indistinguishable from a corrupt file, a failed mmap degrades to the
 * heap fallback. Recovery policies live with the layers they protect:
 * bounded retry in psp::Psp (fault/retry.h), disk-tier quarantine in
 * cache::TemplateCache, load shedding in service::LaunchService.
 *
 * The disarmed fast path is one relaxed atomic load and branch — the
 * same contract as the obs layer — so production binaries that never
 * arm a plan pay nothing (bench_fault_overhead holds us to it).
 */
#ifndef SEVF_FAULT_FAULT_H_
#define SEVF_FAULT_FAULT_H_

#include <atomic>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "base/types.h"

namespace sevf::fault {

/** Instrumented injection points, one per fault domain. */
enum class FaultSite : u8 {
    kPspCommand,       //!< PSP command submission (transient device busy)
    kCacheDiskRead,    //!< template-cache disk-tier load
    kCacheDiskWrite,   //!< template-cache disk-tier persist
    kDramMmap,         //!< DramBuffer anonymous mmap
    kAdmissionEnqueue, //!< launch-queue admission (forces shedding)
    kServiceEnqueue,   //!< launch-service tenant submit (typed reject)
};

inline constexpr std::size_t kFaultSiteCount = 6;

/** Spec/metric-label name: "psp", "disk-read", "disk-write",
 *  "dram-mmap", "admission", "service-enqueue". */
const char *faultSiteName(FaultSite site);

/** Inverse of faultSiteName; kInvalidArgument on unknown names. */
Result<FaultSite> parseFaultSite(const std::string &name);

/**
 * One injection rule. Exactly one trigger is active: when @p nth is
 * non-zero the rule fires on occurrences [nth, nth+count) of its site
 * (1-based, counted from arm()); otherwise it fires per occurrence
 * with @p probability under the plan's seeded RNG.
 */
struct FaultRule {
    FaultSite site = FaultSite::kPspCommand;
    double probability = 0.0;
    u64 nth = 0;
    u64 count = 1;
};

/**
 * A parsed fault plan. Spec grammar (semicolon-separated clauses):
 *
 *   plan   := clause (';' clause)*
 *   clause := "seed=" N | site ':' opt (',' opt)*
 *   site   := "psp" | "disk-read" | "disk-write" | "dram-mmap"
 *           | "admission" | "service-enqueue"
 *   opt    := "p=" FLOAT | "nth=" N | "count=" N
 *
 * Example: "seed=7;psp:p=0.25;disk-read:nth=2,count=3"
 * fires each PSP command with probability 0.25 (seed 7) and fails the
 * 2nd..4th disk-tier reads. Whitespace around tokens is ignored.
 */
struct FaultPlan {
    u64 seed = 1;
    std::vector<FaultRule> rules;

    static Result<FaultPlan> parse(const std::string &spec);

    /** Canonical spec string (round-trips through parse). */
    std::string toString() const;
};

/**
 * The process-wide injector. Disarmed by default; arm() installs a
 * plan and zeroes all occurrence counters. Thread-safe: sites from
 * concurrent launches consult it under one mutex (armed runs are
 * chaos/test runs, contention is irrelevant; the disarmed fast path
 * never takes the lock).
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    void arm(FaultPlan plan);
    void disarm();
    bool armed() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /**
     * Record one occurrence at @p site and decide whether to inject.
     * Returns OK to proceed, or the injected fault: kUnavailable for
     * PSP/disk/admission sites (transient, retryable — fault/retry.h)
     * and for DRAM mmap (the caller degrades to the heap fallback).
     * @p detail names the concrete operation for the error message.
     */
    Status check(FaultSite site, std::string_view detail);

    /** Occurrences seen / faults injected at @p site since arm(). */
    struct SiteStats {
        u64 occurrences = 0;
        u64 injected = 0;
    };
    SiteStats siteStats(FaultSite site) const;

  private:
    FaultInjector();

    std::atomic<bool> armed_{false};
    mutable base::Mutex mu_;
    FaultPlan plan_ SEVF_GUARDED_BY(mu_);
    Rng rng_ SEVF_GUARDED_BY(mu_){1};
    SiteStats stats_[kFaultSiteCount] SEVF_GUARDED_BY(mu_);
};

/**
 * RAII plan activation for tests: arms on construction, disarms on
 * destruction, so a failing test cannot leak an armed plan into the
 * rest of the suite.
 */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(FaultPlan plan)
    {
        FaultInjector::instance().arm(std::move(plan));
    }
    ~ScopedFaultPlan() { FaultInjector::instance().disarm(); }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

} // namespace sevf::fault

#endif // SEVF_FAULT_FAULT_H_
