/**
 * @file
 * Internal helper: accumulates BootTrace steps and mirrors them onto
 * the debug-port timeline with running virtual timestamps.
 *
 * This is also the sim-clock tap for the observability layer: every
 * charged step is reported to obs (span trace + per-kind/per-phase
 * metrics) with its virtual start time, so a Chrome trace of a launch
 * shows the exact step sequence the BootTrace records. Each builder
 * draws a fresh obs launch id at construction; BootStrategy::launch
 * creates one builder per launch, so launch == builder here.
 */
#ifndef SEVF_CORE_TRACE_BUILDER_H_
#define SEVF_CORE_TRACE_BUILDER_H_

#include <atomic>
#include <cstring>
#include <iterator>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/trace.h"
#include "vmm/debug_port.h"

namespace sevf::core {

class TraceBuilder
{
  public:
    explicit TraceBuilder(vmm::DebugPort &port)
        : port_(port),
          obs_launch_(obs::tracingEnabled() ? obs::newLaunchId() : 0)
    {
    }

    void
    cpu(sim::Duration d, const char *phase, std::string label)
    {
        add(sim::StepKind::kCpu, d, phase, std::move(label));
    }

    void
    psp(sim::Duration d, const char *phase, std::string label)
    {
        add(sim::StepKind::kPsp, d, phase, std::move(label));
    }

    void
    net(sim::Duration d, const char *phase, std::string label)
    {
        add(sim::StepKind::kNet, d, phase, std::move(label));
    }

    /**
     * Re-charge a step recorded by a previous launch (the template-cache
     * warm path). Advances virtual time, mirrors the debug-port
     * timeline, and reports to obs exactly like a live add(), so a
     * replayed launch produces a bit-identical BootTrace and timeline:
     * the cache saves host wall-clock, never simulated time — the PSP
     * and guest work it models still happens per-VM in reality.
     */
    void
    replay(const sim::Step &s)
    {
        sim::TimePoint start = now_;
        now_ += s.duration;
        port_.record(now_, s.label);
        observe(s.kind, s.duration, s.phase.c_str(), s.label, start);
        trace_.addStep(s);
    }

    sim::TimePoint now() const { return now_; }
    sim::BootTrace take() { return std::move(trace_); }
    /** Steps charged so far (template capture reads the prefix). */
    const sim::BootTrace &trace() const { return trace_; }

    /** obs launch id for this builder's launch (0 when tracing is off). */
    u64 obsLaunchId() const { return obs_launch_; }

  private:
    static u64
    obsTrack(sim::StepKind kind)
    {
        switch (kind) {
        case sim::StepKind::kPsp:
            return obs::kSimPspTrack;
        case sim::StepKind::kNet:
            return obs::kSimNetTrack;
        case sim::StepKind::kCpu:
            break;
        }
        return obs::kSimCpuTrack;
    }

    void
    observe(sim::StepKind kind, sim::Duration d, const char *phase,
            const std::string &label, sim::TimePoint start)
    {
        if (obs_launch_ != 0) {
            obs::simStep(obs_launch_, obsTrack(kind), phase, label,
                         static_cast<u64>(start.ns()),
                         static_cast<u64>(d.ns()));
        }
        if (obs::metricsEnabled()) {
            stepNs(kind).observe(static_cast<u64>(d.ns()));
            phaseSimNs(phase).add(static_cast<u64>(d.ns()));
        }
    }

    /**
     * sevf_sim_step_ns{kind}, resolved on the first step of each kind
     * and cached for the process. Lazily, so an export lists exactly
     * the series a run charged. A racing first fill stores the same
     * registry-owned handle twice.
     */
    static obs::Histogram &
    stepNs(sim::StepKind kind)
    {
        static std::atomic<obs::Histogram *> cache[3];
        std::atomic<obs::Histogram *> &slot =
            cache[static_cast<std::size_t>(kind)];
        obs::Histogram *h = slot.load(std::memory_order_acquire);
        if (h == nullptr) {
            h = &obs::Registry::instance().histogram(
                "sevf_sim_step_ns",
                "Simulated duration of one charged boot step",
                obs::defaultTimeBoundsNs(),
                {{"kind", sim::stepKindName(kind)}});
            slot.store(h, std::memory_order_release);
        }
        return *h;
    }

    /**
     * sevf_launch_phase_sim_ns_total{phase}, cached the same way for
     * every sim::phase name. Any other phase string (none is charged
     * today) falls back to a by-name lookup.
     */
    static obs::Counter &
    phaseSimNs(const char *phase)
    {
        static constexpr const char *kPhases[] = {
            sim::phase::kVmm,          sim::phase::kPreEncryption,
            sim::phase::kFirmware,     sim::phase::kBootVerification,
            sim::phase::kBootstrapLoader, sim::phase::kLinuxBoot,
            sim::phase::kAttestation,
        };
        static std::atomic<obs::Counter *> cache[std::size(kPhases)];
        auto resolve = [phase] {
            return &obs::Registry::instance().counter(
                "sevf_launch_phase_sim_ns_total",
                "Simulated nanoseconds charged per boot phase",
                {{"phase", phase}});
        };
        for (std::size_t i = 0; i < std::size(kPhases); ++i) {
            if (std::strcmp(phase, kPhases[i]) != 0) {
                continue;
            }
            obs::Counter *c = cache[i].load(std::memory_order_acquire);
            if (c == nullptr) {
                c = resolve();
                cache[i].store(c, std::memory_order_release);
            }
            return *c;
        }
        return *resolve();
    }

    void
    add(sim::StepKind kind, sim::Duration d, const char *phase,
        std::string label)
    {
        sim::TimePoint start = now_;
        now_ += d;
        port_.record(now_, label);
        observe(kind, d, phase, label, start);
        trace_.add(kind, d, phase, std::move(label));
    }

    vmm::DebugPort &port_;
    sim::BootTrace trace_;
    sim::TimePoint now_;
    u64 obs_launch_ = 0;
};

} // namespace sevf::core

#endif // SEVF_CORE_TRACE_BUILDER_H_
