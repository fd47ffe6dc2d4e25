/**
 * @file
 * Launch benchmark runner. run.py generates a seeded schedule, this
 * binary executes it against the library and writes raw results as
 * JSON; run.py turns them into the reported metrics.
 *
 *   sevf_perfbench --schedule FILE --mode setup|run|trace
 *                  --seconds S --out FILE
 *
 * Modes:
 *  - setup: build everything the timed phase needs, then exit. run.py
 *    runs it in fresh processes to repeat the set-up measurement.
 *  - run:   set-up, then the timed phase with tracing off.
 *  - trace: set-up, an untraced half, a traced half, and timed direct
 *           calls into the layers the program does not span (image
 *           parse, boot hashes, boot verifier, bootstrap loader,
 *           attestation); writes the per-layer table.
 *
 * Closed-loop workloads drive core::BootStrategy::launch with one
 * client. The open-loop workload drives service::LaunchService::submit
 * from one generator thread that sends on the schedule and polls
 * LaunchTicket::ready().
 *
 * Every launch passes the correctness gate or the run reports
 * correct=false: the launch succeeds, an SEV launch of a networked
 * kernel ends attested, and all launches of one launch key agree on
 * measurement and virtual boot time.
 */
#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attest/expected_measurement.h"
#include "attest/guest_owner.h"
#include "base/bytes.h"
#include "base/parallel.h"
#include "cache/template_cache.h"
#include "core/launch.h"
#include "core/platform.h"
#include "crypto/aes128.h"
#include "crypto/sha256.h"
#include "guest/attestation_client.h"
#include "guest/bootstrap_loader.h"
#include "image/bzimage.h"
#include "image/elf.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "service/launch_service.h"
#include "service/tenant.h"
#include "stats/json.h"
#include "verifier/boot_hashes.h"
#include "verifier/boot_verifier.h"
#include "verifier/verifier_binary.h"
#include "vmm/layout.h"
#include "vmm/microvm.h"
#include "workload/synthetic.h"

using namespace sevf;

namespace {

constexpr double kScale = 0.25;
/** Where the strategies provision the attestation secret. */
constexpr Gpa kSecretGpa = 0x280000;

const auto kProcessStart = std::chrono::steady_clock::now();

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - kProcessStart)
        .count();
}

/** CPU seconds of this thread (CLOCK_THREAD_CPUTIME_ID). */
double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** CPU seconds of all threads of this process. */
double
processCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Host steal so far: USER_HZ ticks, summed over CPUs, in which a vCPU
 * of this VM was runnable but the hypervisor ran something else (the
 * eighth number of /proc/stat's "cpu" line). 0 where not reported.
 */
double
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double fields[8] = {};
    in >> cpu;
    for (double &f : fields) {
        in >> f;
    }
    return in ? fields[7] : 0;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------
// Schedule (written by run.py)
// ---------------------------------------------------------------------

std::string kernelName(workload::KernelConfig config);

struct KeySpec {
    core::StrategyKind kind = core::StrategyKind::kSeveriFastBz;
    workload::KernelConfig kernel = workload::KernelConfig::kAws;
    u32 vcpus = 1;

    std::string
    label() const
    {
        return std::string(core::strategyName(kind)) + "/" +
               kernelName(kernel) + "/" +
               std::to_string(vcpus);
    }
};

struct TenantSpec {
    std::string id;
    u32 weight = 1;
    u64 share_mib = 0;
};

struct Request {
    u64 t_ns = 0; //!< send time, relative to the step start
    u32 tenant = 0;
    u32 key = 0;
};

struct Step {
    double rate = 0;
    /** When not 0, send whenever fewer than this many requests are
     *  outstanding instead of at the requests' times. */
    std::size_t outstanding = 0;
    std::vector<Request> requests;
};

struct Schedule {
    std::string workload;
    bool open_loop = false;
    // Closed loop.
    KeySpec key;
    unsigned host_threads = 1;
    u64 cache_mib = 0;
    std::vector<std::string> tokens; //!< [0] is the warm-up launch
    std::size_t verify = 0;          //!< tokens[1..verify] relaunched
    // Open loop.
    unsigned workers = 2;
    std::vector<TenantSpec> tenants;
    std::vector<KeySpec> keys;
    std::vector<Step> steps;
    double stop_ms = 0; //!< stop after a step with a p50 above this
    std::size_t traced_step = 0; //!< trace mode: the step traced
};

std::optional<core::StrategyKind>
parseStrategy(const std::string &s)
{
    for (core::StrategyKind k :
         {core::StrategyKind::kStockFirecracker,
          core::StrategyKind::kQemuOvmfSev,
          core::StrategyKind::kSevDirectBoot,
          core::StrategyKind::kSeveriFastBz,
          core::StrategyKind::kSeveriFastVmlinux}) {
        if (s == core::strategyName(k)) {
            return k;
        }
    }
    return std::nullopt;
}

/** Lower-case kernel name, as the schedule spells it ("aws"). */
std::string
kernelName(workload::KernelConfig config)
{
    std::string name = workload::kernelSpec(config).name;
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return name;
}

std::optional<workload::KernelConfig>
parseKernel(const std::string &s)
{
    for (const workload::KernelSpec &spec : workload::allKernelSpecs()) {
        if (s == kernelName(spec.config)) {
            return spec.config;
        }
    }
    return std::nullopt;
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "sevf_perfbench: %s\n", msg.c_str());
    std::exit(2);
}

KeySpec
readKey(std::istringstream &in)
{
    std::string strategy, kernel;
    KeySpec k;
    in >> strategy >> kernel >> k.vcpus;
    std::optional<core::StrategyKind> kind = parseStrategy(strategy);
    std::optional<workload::KernelConfig> cfg = parseKernel(kernel);
    if (!in || !kind || !cfg || k.vcpus == 0) {
        die("bad launch key in schedule: " + strategy + " " + kernel);
    }
    k.kind = *kind;
    k.kernel = *cfg;
    return k;
}

Schedule
readSchedule(const std::string &path)
{
    std::ifstream file(path);
    if (!file) {
        die("cannot read schedule " + path);
    }
    Schedule s;
    std::string line;
    while (std::getline(file, line)) {
        std::istringstream in(line);
        std::string tag;
        in >> tag;
        if (tag.empty()) {
            continue;
        }
        if (tag == "workload") {
            in >> s.workload;
        } else if (tag == "loop") {
            std::string kind;
            in >> kind;
            s.open_loop = kind == "open";
        } else if (tag == "key") {
            s.key = readKey(in);
        } else if (tag == "host_threads") {
            in >> s.host_threads;
        } else if (tag == "cache_mib") {
            in >> s.cache_mib;
        } else if (tag == "token") {
            std::string t;
            in >> t;
            s.tokens.push_back(t);
        } else if (tag == "verify") {
            in >> s.verify;
        } else if (tag == "workers") {
            in >> s.workers;
        } else if (tag == "tenant") {
            TenantSpec t;
            in >> t.id >> t.weight >> t.share_mib;
            s.tenants.push_back(t);
        } else if (tag == "mix") {
            s.keys.push_back(readKey(in));
        } else if (tag == "step") {
            Step st;
            in >> st.rate;
            s.steps.push_back(st);
        } else if (tag == "saturate") {
            Step st;
            in >> st.outstanding;
            if (st.outstanding == 0) {
                die("saturate needs at least one outstanding request");
            }
            s.steps.push_back(st);
        } else if (tag == "req") {
            Request r;
            in >> r.t_ns >> r.tenant >> r.key;
            if (s.steps.empty()) {
                die("req before step in schedule");
            }
            s.steps.back().requests.push_back(r);
        } else if (tag == "stop_ms") {
            in >> s.stop_ms;
        } else if (tag == "traced_step") {
            in >> s.traced_step;
        } else {
            die("unknown schedule line: " + line);
        }
        if (!in && tag != "token") {
            die("malformed schedule line: " + line);
        }
    }
    if (s.workload.empty()) {
        die("schedule names no workload");
    }
    if (s.open_loop) {
        if (s.tenants.empty() || s.keys.empty() || s.steps.empty()) {
            die("open-loop schedule needs tenants, mix and steps");
        }
        for (const Step &st : s.steps) {
            for (const Request &r : st.requests) {
                if (r.tenant >= s.tenants.size() || r.key >= s.keys.size()) {
                    die("request names an unknown tenant or key");
                }
            }
        }
    } else if (s.tokens.size() < s.verify + 2) {
        die("closed-loop schedule needs more tokens");
    }
    return s;
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

struct KeyRecord {
    crypto::Sha256Digest measurement{};
    i64 boot_ns = 0;
};

class Gate
{
  public:
    void
    fail(const std::string &what)
    {
        if (errors_.size() < 20) {
            errors_.push_back(what);
        }
        ++failures_;
    }

    /**
     * Check one launch of @p key. Launches recorded under one
     * @p key_label must agree on measurement and virtual boot time.
     */
    void
    check(const Result<core::LaunchResult> &r, const KeySpec &key,
          const std::string &key_label, bool want_hit)
    {
        if (!r.isOk()) {
            fail(key_label + ": launch failed: " + r.status().toString());
            return;
        }
        const bool networked = workload::kernelSpec(key.kernel).has_network;
        if (r->attested != networked) {
            fail(key_label + ": attested=" + std::to_string(r->attested) +
                 " for a kernel with network=" + std::to_string(networked));
        }
        if (r->cache_hit != want_hit) {
            fail(key_label + ": expected cache " +
                 (want_hit ? "hit" : "miss"));
        }
        KeyRecord rec{r->measurement, r->bootTime().ns()};
        auto [it, inserted] = records_.emplace(key_label, rec);
        if (!inserted && (it->second.measurement != rec.measurement ||
                          it->second.boot_ns != rec.boot_ns)) {
            fail(key_label + ": measurement or boot time differs between "
                             "launches of one launch key");
        }
    }

    const std::map<std::string, KeyRecord> &records() const
    {
        return records_;
    }
    bool ok() const { return failures_ == 0; }
    u64 failures() const { return failures_; }
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    std::map<std::string, KeyRecord> records_;
    std::vector<std::string> errors_;
    u64 failures_ = 0;
};

/** SHA-256 over the measurements and boot times of @p labels. */
std::string
digestOf(const Gate &gate, const std::vector<std::string> &labels)
{
    crypto::Sha256 h;
    for (const std::string &label : labels) {
        auto it = gate.records().find(label);
        if (it == gate.records().end()) {
            continue;
        }
        std::string line = label + " " + toHex(it->second.measurement) +
                           " " + std::to_string(it->second.boot_ns) + "\n";
        h.update(asBytes(line));
    }
    return toHex(h.finalize());
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

using Json = stats::JsonValue;

Json
jsonArray(const std::vector<double> &v)
{
    Json::Array out;
    for (double x : v) {
        out.push_back(Json::number(x));
    }
    return Json::array(std::move(out));
}

/**
 * Virtual boot time of every launch label seen, as [[key, ns], ...].
 * Labels that start with @p key_prefix (a closed loop's key; its labels
 * add the cmdline token) are reported as that key.
 */
Json
bootsJson(const Gate &gate, const std::string &key_prefix)
{
    Json::Array out;
    for (const auto &[label, rec] : gate.records()) {
        std::string shape = label;
        if (!key_prefix.empty() && label.rfind(key_prefix, 0) == 0) {
            shape = key_prefix;
        }
        out.push_back(Json::array(
            {Json::string(shape),
             Json::number(static_cast<double>(rec.boot_ns))}));
    }
    return Json::array(std::move(out));
}

// ---------------------------------------------------------------------
// Host speed reference
// ---------------------------------------------------------------------

/**
 * One run of the host reference task: fixed work that calls no library
 * code and uses what a launch uses — demand-zero read faults over a
 * fresh anonymous mapping, fresh-page write faults, a memory copy and
 * integer hashing. run.py scales host times by how long this task takes
 * next to the work timed, so a stretch in which the hypervisor steals
 * the VM's CPUs or other guests slow the host moves both alike, while a
 * change to the library moves only the launches.
 */
struct RefSample {
    double wall_ms = 0;
    double cpu_ms = 0; //!< CPU time of this thread
};

volatile u64 g_ref_sink = 0;

RefSample
refTask()
{
    constexpr std::size_t kMapped = 16 * kMiB, kWritten = 4 * kMiB;
    constexpr std::size_t kPage = 4096;
    const double w0 = nowS(), c0 = threadCpuS();
    void *m = ::mmap(nullptr, kMapped, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) {
        die("reference task: mmap failed");
    }
    const volatile u8 *vp = static_cast<const u8 *>(m);
    u8 *p = static_cast<u8 *>(m);
    u64 h = 0;
    for (std::size_t i = 0; i < kMapped; i += kPage) {
        h += vp[i]; // maps the zero page
    }
    std::memset(p, static_cast<int>(h) + 0x5a, kWritten);
    std::memcpy(p + kWritten, p, kWritten);
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < 2 * kWritten; i += sizeof(u64)) {
            u64 v;
            std::memcpy(&v, p + i, sizeof v);
            h = (h ^ v) * 0x100000001b3ULL;
        }
    }
    ::munmap(m, kMapped);
    g_ref_sink = g_ref_sink + h;
    return {(nowS() - w0) * 1e3, (threadCpuS() - c0) * 1e3};
}

/** Reference samples, appended to by burst(). */
struct RefSeries {
    std::vector<double> wall_ms, cpu_ms;

    void
    add(RefSample r)
    {
        wall_ms.push_back(r.wall_ms);
        cpu_ms.push_back(r.cpu_ms);
    }

    void
    burst(int n)
    {
        for (int i = 0; i < n; ++i) {
            add(refTask());
        }
    }
};

/** Reference runs before each open-loop step and after the last. */
constexpr int kStepRefs = 8;

// ---------------------------------------------------------------------
// Host fingerprint and parallel ceiling
// ---------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Seconds for @p threads threads to each spin the same fixed loop. */
double
spinSeconds(unsigned threads)
{
    constexpr u64 kIters = 40'000'000;
    std::atomic<u64> sink{0};
    auto body = [&sink](u64 seed) {
        u64 x = seed;
        for (u64 i = 0; i < kIters; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        }
        sink.fetch_add(x, std::memory_order_relaxed);
    };
    double t0 = nowS();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back(body, t + 1);
    }
    for (std::thread &t : pool) {
        t.join();
    }
    return nowS() - t0;
}

Json
hostFingerprint(bool with_ceiling)
{
#ifdef __clang__
    const std::string compiler = "clang " __clang_version__;
#else
    const std::string compiler = "gcc " __VERSION__;
#endif
    Json::Object host = {
        {"nproc", Json::number(base::hardwareThreads())},
        {"cpu_model", Json::string(cpuModel())},
        {"sha_ni", Json::boolean(crypto::Sha256::hardwareAccelerated())},
        {"aes_ni", Json::boolean(crypto::Aes128::hardwareAccelerated())},
        {"compiler", Json::string(compiler)},
        {"build_type", Json::string(SEVF_PERFBENCH_BUILD_TYPE)},
    };
    if (with_ceiling) {
        const double t1 = spinSeconds(1);
        Json::Object speedup;
        for (unsigned n : {1u, 2u, 4u}) {
            double tn = n == 1 ? t1 : spinSeconds(n);
            speedup[std::to_string(n)] = Json::number(n * t1 / tn);
        }
        host["spin_speedup"] = Json::object(std::move(speedup));
    }
    return Json::object(std::move(host));
}

// ---------------------------------------------------------------------
// obs readers (traced run)
// ---------------------------------------------------------------------

struct ObsView {
    std::vector<obs::MetricSnapshot> metrics;
    std::vector<obs::TraceEvent> events;

    u64
    counter(const std::string &name, const std::string &label_value = "")
        const
    {
        u64 sum = 0;
        for (const obs::MetricSnapshot &m : metrics) {
            if (m.name != name || m.kind != obs::MetricKind::kCounter) {
                continue;
            }
            if (!label_value.empty() &&
                (m.labels.empty() || m.labels[0].second != label_value)) {
                continue;
            }
            sum += m.counter_value;
        }
        return sum;
    }

    std::pair<u64, u64>
    histogram(const std::string &name) const
    {
        u64 sum = 0, count = 0;
        for (const obs::MetricSnapshot &m : metrics) {
            if (m.name == name && m.kind == obs::MetricKind::kHistogram) {
                sum += m.histogram.sum;
                count += m.histogram.count;
            }
        }
        return {sum, count};
    }

    /** Summed duration (ns) and count of wall spans named @p name. */
    std::pair<u64, u64>
    spans(const std::string &name) const
    {
        u64 sum = 0, count = 0;
        for (const obs::TraceEvent &e : events) {
            if (e.kind == obs::TraceEventKind::kWallSpan && e.name == name) {
                sum += e.dur_ns;
                ++count;
            }
        }
        return {sum, count};
    }

    u64
    spanArgSum(const std::string &name, const std::string &arg) const
    {
        u64 sum = 0;
        for (const obs::TraceEvent &e : events) {
            if (e.kind != obs::TraceEventKind::kWallSpan || e.name != name) {
                continue;
            }
            for (const auto &[k, v] : e.args) {
                if (k == arg) {
                    sum += std::strtoull(v.c_str(), nullptr, 10);
                }
            }
        }
        return sum;
    }

    /**
     * Self time of each span named @p name: its duration minus the
     * union of its direct children's intervals (any thread).
     */
    std::vector<double>
    selfMs(const std::string &name) const
    {
        std::map<u64, std::vector<std::pair<u64, u64>>> children;
        for (const obs::TraceEvent &e : events) {
            if (e.kind == obs::TraceEventKind::kWallSpan && e.parent != 0) {
                children[e.parent].emplace_back(e.start_ns,
                                                e.start_ns + e.dur_ns);
            }
        }
        std::vector<double> out;
        for (const obs::TraceEvent &e : events) {
            if (e.kind != obs::TraceEventKind::kWallSpan || e.name != name) {
                continue;
            }
            std::vector<std::pair<u64, u64>> iv = children[e.id];
            std::sort(iv.begin(), iv.end());
            const u64 lo = e.start_ns, hi = e.start_ns + e.dur_ns;
            u64 covered = 0, cur_lo = 0, cur_hi = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::clamp(a, lo, hi);
                b = std::clamp(b, lo, hi);
                if (open && a <= cur_hi) {
                    cur_hi = std::max(cur_hi, b);
                    continue;
                }
                if (open) {
                    covered += cur_hi - cur_lo;
                }
                cur_lo = a;
                cur_hi = b;
                open = true;
            }
            if (open) {
                covered += cur_hi - cur_lo;
            }
            out.push_back(static_cast<double>(e.dur_ns - covered) / 1e6);
        }
        return out;
    }
};

ObsView
snapshotObs()
{
    return {obs::Registry::instance().snapshot(),
            obs::TraceLog::instance().snapshot()};
}

void
startTracing()
{
    obs::setMetricsEnabled(true);
    obs::setTracingEnabled(true);
    obs::Registry::instance().reset();
    obs::TraceLog::instance().clear();
}

void
stopTracing()
{
    obs::setMetricsEnabled(false);
    obs::setTracingEnabled(false);
}

// ---------------------------------------------------------------------
// Layer probes: timed direct calls into the public entry points the
// program does not span, on the artifacts the workload launches use.
// The flow mirrors the strategy bodies in core/strategies.cc; the probe
// measurement must equal the library's launch measurement, so a probe
// that drifts from the strategy fails the gate instead of misleading.
// ---------------------------------------------------------------------

struct ProbeTimes {
    std::map<std::string, double> ms;      //!< inclusive wall time
    std::map<std::string, double> self_ms; //!< minus spanned children
    crypto::Sha256Digest measurement{};
};

/** Run @p fn inside a benchmark span named @p span; return its ms. */
template <typename Fn>
double
timed(const char *span, Fn &&fn)
{
    double t0 = nowS();
    {
        SEVF_SPAN(span);
        fn();
    }
    return (nowS() - t0) * 1e3;
}

Result<ProbeTimes>
probeLaunch(core::Platform &platform, const KeySpec &key,
            const std::string &cmdline, u64 seed)
{
    const bool direct = key.kind == core::StrategyKind::kSevDirectBoot;
    if (key.kind != core::StrategyKind::kSeveriFastBz && !direct) {
        return errInvalidArgument("no probe for " + key.label());
    }
    namespace layout = vmm::layout;
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(key.kernel, kScale);
    const ByteVec &initrd = workload::cachedInitrd(kScale);
    vmm::VmConfig cfg;
    cfg.vcpus = key.vcpus;
    cfg.cmdline = cmdline;

    ProbeTimes pt;
    vmm::MicroVm vm(cfg, platform.allocateSpaWindow(cfg.memory_size),
                    platform.psp().allocateAsid(),
                    memory::SevMode::kSevSnp);
    memory::GuestMemory &mem = vm.memory();
    Status st = Status::ok();
    auto keep = [&st](Status s) {
        if (st.isOk() && !s.isOk()) {
            st = s;
        }
    };

    pt.ms["image.parse"] = timed("bench.image_parse", [&] {
        keep(image::parseBzImage(art.bzimage).status());
        keep(image::parseElf(art.vmlinux).status());
    });

    std::vector<attest::PreEncryptedRegion> plan;
    verifier::BootHashes hashes;
    std::optional<vmm::BootStructs> structs;
    pt.ms["vmm.stage"] = timed("bench.vmm_stage", [&] {
        if (direct) {
            keep(mem.hostWrite(layout::kBzImagePrivateGpa, art.bzimage));
            keep(mem.hostWrite(layout::kInitrdPrivateGpa, initrd));
        } else {
            keep(vm.stageMeasuredComponents(art.bzimage, initrd).status());
        }
        Result<vmm::BootStructs> s =
            vm.stageBootStructs(layout::kInitrdPrivateGpa, initrd.size(), 0);
        keep(s.status());
        if (s.isOk()) {
            structs = *s;
        }
    });
    SEVF_RETURN_IF_ERROR(st);

    if (direct) {
        plan.push_back({"bzimage", layout::kBzImagePrivateGpa, art.bzimage});
        plan.push_back({"initrd", layout::kInitrdPrivateGpa, initrd});
        for (const auto &[name, gpa, size] :
             {std::tuple<const char *, Gpa, u64>{
                  "mptable", structs->mptable_gpa, structs->mptable_size},
              {"boot_params", structs->boot_params_gpa,
               structs->boot_params_size},
              {"cmdline", structs->cmdline_gpa, structs->cmdline_size}}) {
            SEVF_ASSIGN_OR_RETURN(ByteVec bytes, mem.hostRead(gpa, size));
            plan.push_back({name, gpa, std::move(bytes)});
        }
    } else {
        pt.ms["verifier.boot_hashes"] = timed("bench.boot_hashes", [&] {
            hashes = verifier::BootHashes::compute(art.bzimage, initrd,
                                                   std::nullopt);
        });
        SEVF_ASSIGN_OR_RETURN(plan,
                              vm.buildPreEncryptionPlan(
                                  verifier::verifierBinary(), hashes,
                                  *structs));
    }

    // PSP launch flow (spanned by the program itself).
    SEVF_ASSIGN_OR_RETURN(psp::GuestHandle handle,
                          platform.psp().launchStart(mem, cfg.sev_policy));
    for (const attest::PreEncryptedRegion &r : plan) {
        SEVF_RETURN_IF_ERROR(platform.psp().launchUpdateData(
            handle, mem, r.gpa, r.bytes.size()));
    }
    for (u32 cpu = 0; cpu < cfg.vcpus; ++cpu) {
        SEVF_RETURN_IF_ERROR(platform.psp().launchUpdateVmsa(
            handle, mem, cpu, layout::kVmsaGpa + cpu * kPageSize));
    }
    SEVF_RETURN_IF_ERROR(platform.psp().launchFinish(handle));
    SEVF_ASSIGN_OR_RETURN(pt.measurement,
                          platform.psp().launchMeasure(handle));

    Gpa kernel_gpa = layout::kBzImagePrivateGpa;
    u64 kernel_size = art.bzimage.size();
    if (direct) {
        pt.ms["memory.pvalidate"] = timed("bench.pvalidate", [&] {
            for (Gpa page = 0; page < mem.size() && st.isOk();
                 page += kPageSize) {
                if (mem.rmp().entryAt(mem.spaOf(page)).validated) {
                    continue;
                }
                keep(mem.rmp().rmpUpdate(mem.spaOf(page), mem.asid(), page,
                                         true));
                keep(mem.rmp().pvalidate(mem.spaOf(page), mem.asid(), page,
                                         true));
            }
        });
    } else {
        verifier::VerifierInputs in;
        in.kernel_staging = layout::kKernelStagingGpa;
        in.initrd_staging = layout::kInitrdStagingGpa;
        in.hash_table_gpa = layout::kHashTableGpa;
        in.kernel_private = layout::kBzImagePrivateGpa;
        in.initrd_private = layout::kInitrdPrivateGpa;
        in.page_table_root = layout::kPageTableGpa;
        in.kernel_kind = verifier::KernelImageKind::kBzImage;
        in.hugepages = cfg.hugepages;
        in.keep_shared = {{layout::kKernelStagingGpa, art.bzimage.size()},
                          {layout::kInitrdStagingGpa, initrd.size()}};
        verifier::BootVerifier boot_verifier(mem);
        pt.ms["verifier.run"] = timed("bench.verifier_run", [&] {
            Result<verifier::VerifiedBoot> boot = boot_verifier.run(in);
            keep(boot.status());
            if (boot.isOk()) {
                kernel_gpa = boot->kernel_gpa;
                kernel_size = boot->kernel_size;
            }
        });
    }
    SEVF_RETURN_IF_ERROR(st);

    pt.ms["guest.bootstrap"] = timed("bench.bootstrap", [&] {
        keep(guest::runBootstrapLoader(mem, kernel_gpa, kernel_size, true)
                 .status());
    });
    SEVF_RETURN_IF_ERROR(st);

    if (workload::kernelSpec(key.kernel).has_network) {
        pt.ms["attest"] = timed("bench.attest", [&] {
            attest::GuestOwner owner(
                platform.keyServer(),
                attest::expectedMeasurement(
                    plan, attest::VmsaInfo{cfg.vcpus, cfg.sev_policy,
                                           layout::kVmsaGpa}),
                toBytes("disk-key-" + std::to_string(seed)), seed ^ 0x0143);
            keep(guest::runAttestation(platform.psp(), handle, mem,
                                       kSecretGpa, owner, seed ^ 0x9e57)
                     .status());
        });
        SEVF_RETURN_IF_ERROR(st);
    }
    return pt;
}

/** Span name for each probed layer (see probeLaunch). */
const std::map<std::string, std::string> &
probeSpans()
{
    static const std::map<std::string, std::string> spans = {
        {"image.parse", "bench.image_parse"},
        {"vmm.stage", "bench.vmm_stage"},
        {"verifier.boot_hashes", "bench.boot_hashes"},
        {"memory.pvalidate", "bench.pvalidate"},
        {"verifier.run", "bench.verifier_run"},
        {"guest.bootstrap", "bench.bootstrap"},
        {"attest", "bench.attest"},
    };
    return spans;
}

/**
 * Median probe times over @p reps traced repetitions. Self times drop
 * the parts the program already spans (xex, lz4, host writes, PSP).
 */
Result<ProbeTimes>
probeMedian(const KeySpec &key, const std::string &cmdline, int reps)
{
    core::Platform platform;
    std::map<std::string, std::vector<double>> ms, self;
    ProbeTimes out;
    for (int i = 0; i < reps; ++i) {
        startTracing();
        Result<ProbeTimes> pt = probeLaunch(platform, key, cmdline, 1);
        ObsView view = snapshotObs();
        stopTracing();
        if (!pt.isOk()) {
            return pt.status();
        }
        out.measurement = pt->measurement;
        for (const auto &[layer, v] : pt->ms) {
            ms[layer].push_back(v);
            std::vector<double> s =
                view.selfMs(probeSpans().at(layer));
            self[layer].push_back(s.empty() ? 0 : s.front());
        }
    }
    for (const auto &[layer, v] : ms) {
        out.ms[layer] = median(v);
        out.self_ms[layer] = median(self[layer]);
    }
    return out;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

std::string
tokenCmdline(const std::string &token)
{
    return std::string(vmm::kDefaultCmdline) + " sevf.bench=" + token;
}

core::LaunchRequest
requestFor(const KeySpec &key, unsigned host_threads, u64 seed)
{
    core::LaunchRequest r;
    r.kernel = key.kernel;
    r.scale = kScale;
    r.vm.vcpus = key.vcpus;
    r.host_threads = host_threads;
    r.seed = seed;
    return r;
}

/** Setup timings shared by both loops. */
struct SetupInfo {
    double synth_s = 0;
    u64 lz4_compress_calls = 0;
};

SetupInfo
synthesize(const std::vector<workload::KernelConfig> &kernels, bool traced)
{
    if (traced) {
        startTracing();
    }
    SetupInfo info;
    double t0 = nowS();
    {
        SEVF_SPAN("bench.synthesize");
        for (workload::KernelConfig k : kernels) {
            (void)workload::cachedKernelArtifacts(k, kScale);
        }
        (void)workload::cachedInitrd(kScale);
        (void)verifier::verifierBinary();
    }
    info.synth_s = nowS() - t0;
    if (traced) {
        info.lz4_compress_calls = snapshotObs().spans("lz4.compress").second;
        stopTracing();
    }
    return info;
}

struct LaunchSample {
    double latency_ms = 0;
    double lag_ms = 0; //!< how late the generator sent it
    u32 tenant = 0;
};

std::vector<double>
latencies(const std::vector<LaunchSample> &samples)
{
    std::vector<double> out;
    for (const LaunchSample &x : samples) {
        out.push_back(x.latency_ms);
    }
    return out;
}

class ClosedLoop
{
  public:
    ClosedLoop(const Schedule &s, Gate &gate) : s_(s), gate_(gate) {}

    /** Synthesis, platform, one warm-up launch. */
    SetupInfo
    setup(bool traced)
    {
        SetupInfo info = synthesize({s_.key.kernel}, traced);
        platform_.templateCache().setCapacityBytes(s_.cache_mib * kMiB);
        launch(0); // warm-up: pays first-touch costs before timing
        return info;
    }

    struct RunResult {
        std::vector<double> latency_ms;
        std::vector<double> cpu_ms; //!< process CPU time of each launch
        RefSeries ref;              //!< one reference run after each launch
    };

    /** Launch tokens in order until @p seconds pass, each followed by a
     *  run of the host reference task. The traced run interleaves them
     *  too, so its launches run in the state the end-to-end metrics see:
     *  back to back, cold launches alternated between about 105 and 150
     *  ms on the measuring host, with the reference task between them
     *  they did not. */
    RunResult
    run(double seconds)
    {
        RunResult out;
        double t_end = nowS() + seconds;
        while (nowS() < t_end) {
            if (next_ >= s_.tokens.size()) {
                gate_.fail("schedule ran out of cmdline tokens");
                break;
            }
            double c0 = processCpuS(), t0 = nowS();
            bool ok = launch(next_++);
            out.latency_ms.push_back((nowS() - t0) * 1e3);
            out.cpu_ms.push_back((processCpuS() - c0) * 1e3);
            completed_ += ok;
            out.ref.add(refTask());
        }
        return out;
    }

    /** Relaunch tokens[1..verify] cold with the cache off; they must
     *  reproduce their timed-phase measurement and boot time. */
    std::vector<std::string>
    verify()
    {
        std::vector<std::string> labels;
        for (std::size_t i = 1; i <= s_.verify && i < next_; ++i) {
            core::LaunchRequest r = request(i);
            r.use_template_cache = false;
            gate_.check(core::makeStrategy(s_.key.kind)->launch(platform_, r),
                        s_.key, label(i), false);
            labels.push_back(label(i));
        }
        if (labels.size() < s_.verify) {
            gate_.fail("timed phase completed fewer launches than the "
                       "verification set");
        }
        return labels;
    }

    u64 completed() const { return completed_; }
    std::size_t attempted() const { return next_ - 1; }
    core::Platform &platform() { return platform_; }

  private:
    std::string label(std::size_t i) const
    {
        return s_.key.label() + "/" + s_.tokens[i];
    }

    core::LaunchRequest
    request(std::size_t i) const
    {
        core::LaunchRequest r = requestFor(s_.key, s_.host_threads, i + 1);
        r.vm.cmdline = tokenCmdline(s_.tokens[i]);
        return r;
    }

    bool
    launch(std::size_t i)
    {
        Result<core::LaunchResult> r =
            core::makeStrategy(s_.key.kind)->launch(platform_, request(i));
        u64 before = gate_.failures();
        // Every token is new, so every launch must miss the cache.
        gate_.check(r, s_.key, label(i), false);
        if (r.isOk()) {
            // Launches differ only in a fixed-width token, so they all
            // share one virtual boot time.
            if (i == 0) {
                reference_boot_ns_ = r->bootTime().ns();
            } else if (r->bootTime().ns() != reference_boot_ns_) {
                gate_.fail(label(i) + ": virtual boot time differs from "
                                      "the warm-up launch");
            }
        }
        return gate_.failures() == before;
    }

    const Schedule &s_;
    Gate &gate_;
    core::Platform platform_;
    std::size_t next_ = 1;
    u64 completed_ = 0;
    i64 reference_boot_ns_ = 0;
};

class OpenLoop
{
  public:
    OpenLoop(const Schedule &s, Gate &gate) : s_(s), gate_(gate) {}

    SetupInfo
    setup(bool traced)
    {
        std::vector<workload::KernelConfig> kernels;
        for (const KeySpec &k : s_.keys) {
            if (std::find(kernels.begin(), kernels.end(), k.kernel) ==
                kernels.end()) {
                kernels.push_back(k.kernel);
            }
        }
        SetupInfo info = synthesize(kernels, traced);
        for (const TenantSpec &t : s_.tenants) {
            service::TenantQuota q;
            q.weight = t.weight;
            q.cache_share_bytes = t.share_mib * kMiB;
            Status st = registry_.registerTenant(t.id, q);
            if (!st.isOk()) {
                die("tenant registration failed: " + st.toString());
            }
        }
        service::ServiceConfig cfg;
        cfg.workers = s_.workers;
        cfg.queue_depth = 1u << 16; // never block the generator
        service_ = std::make_unique<service::LaunchService>(
            platform_, registry_, cfg);
        // Template pre-build (cold, one at a time), then one warm pass.
        for (bool warm : {false, true}) {
            for (u32 k = 0; k < s_.keys.size(); ++k) {
                Result<core::LaunchResult> r =
                    service_->submit(s_.tenants[0].id, s_.keys[k].kind,
                                     requestFor(s_.keys[k], 1, 1))
                        ->take();
                gate_.check(r, s_.keys[k], s_.keys[k].label(), warm);
            }
        }
        evictions_after_setup_ = platform_.templateCache().stats().evictions;
        return info;
    }

    struct StepResult {
        std::vector<LaunchSample> samples; //!< in send order
        double elapsed_s = 0; //!< first send to last resolution
        std::vector<double> submit_us;
        /** Host steal ticks sampled before send steal_at[i]. */
        std::vector<double> steal_at, steal_ticks;
    };

    /** Host steal is sampled before every this many sends. */
    static constexpr std::size_t kStealEvery = 50;

    StepResult
    runStep(const Step &step)
    {
        struct Pending {
            std::shared_ptr<core::LaunchTicket> ticket;
            std::size_t index;
            double sched_s;
            double lag_ms;
        };
        StepResult out;
        out.samples.resize(step.requests.size());
        std::vector<Pending> pending;
        const double started = nowS();
        const double t0 = started + 0.001;
        std::size_t next = 0;
        while (next < step.requests.size() || !pending.empty()) {
            double now = nowS();
            // Resolve whatever is ready (poll, never block on one
            // ticket: a slow launch must not delay later sends).
            for (std::size_t i = 0; i < pending.size();) {
                if (!pending[i].ticket->ready()) {
                    ++i;
                    continue;
                }
                Pending p = std::move(pending[i]);
                pending[i] = std::move(pending.back());
                pending.pop_back();
                const Request &r = step.requests[p.index];
                finish(p.ticket->take(), r);
                out.samples[p.index] = {(now - p.sched_s) * 1e3, p.lag_ms,
                                        r.tenant};
            }
            if (next < step.requests.size()) {
                const Request &r = step.requests[next];
                now = nowS();
                double due = t0 + static_cast<double>(r.t_ns) * 1e-9;
                if (step.outstanding > 0) {
                    due = pending.size() < step.outstanding
                              ? now
                              : std::numeric_limits<double>::infinity();
                }
                if (now >= due) {
                    if (next % kStealEvery == 0) {
                        out.steal_at.push_back(static_cast<double>(next));
                        out.steal_ticks.push_back(stealTicks());
                    }
                    double s0 = nowS();
                    auto ticket = service_->submit(
                        s_.tenants[r.tenant].id, s_.keys[r.key].kind,
                        requestFor(s_.keys[r.key], 1, next + 1));
                    out.submit_us.push_back((nowS() - s0) * 1e6);
                    pending.push_back(
                        {std::move(ticket), next, due, (s0 - due) * 1e3});
                    ++next;
                    continue;
                }
                if (due - now < 100e-6) {
                    std::this_thread::yield(); // send on time
                    continue;
                }
            }
            // Poll every 50 us; spinning would take CPU from the workers.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        out.elapsed_s = nowS() - started;
        out.steal_at.push_back(static_cast<double>(step.requests.size()));
        out.steal_ticks.push_back(stealTicks());
        return out;
    }

    std::vector<std::string>
    mixLabels() const
    {
        std::vector<std::string> labels;
        for (const KeySpec &k : s_.keys) {
            labels.push_back(k.label());
        }
        return labels;
    }

    void
    checkNoEvictions()
    {
        if (platform_.templateCache().stats().evictions !=
            evictions_after_setup_) {
            gate_.fail("warm-serve evicted a template: the mix no longer "
                       "fits the tenants' cache shares");
        }
    }

    u64 completed() const { return completed_; }
    u64 attempted() const { return attempted_; }
    core::Platform &platform() { return platform_; }
    service::LaunchService &service() { return *service_; }

  private:
    void
    finish(Result<core::LaunchResult> r, const Request &req)
    {
        ++attempted_;
        u64 before = gate_.failures();
        gate_.check(r, s_.keys[req.key], s_.keys[req.key].label(), true);
        completed_ += gate_.failures() == before;
    }

    const Schedule &s_;
    Gate &gate_;
    core::Platform platform_;
    service::TenantRegistry registry_;
    std::unique_ptr<service::LaunchService> service_;
    u64 evictions_after_setup_ = 0;
    u64 completed_ = 0;
    u64 attempted_ = 0;
};

// ---------------------------------------------------------------------
// Per-layer table (trace mode)
// ---------------------------------------------------------------------

double
perLaunch(double v, double launches)
{
    return launches > 0 ? v / launches : 0;
}

double
mbPerS(u64 bytes, u64 ns)
{
    return ns > 0 ? static_cast<double>(bytes) / 1e6 /
                        (static_cast<double>(ns) * 1e-9)
                  : 0;
}

double
jain(const std::vector<double> &x)
{
    double sum = 0, sq = 0;
    for (double v : x) {
        sum += v;
        sq += v * v;
    }
    return sq > 0 ? sum * sum / (static_cast<double>(x.size()) * sq) : 0;
}

struct TracedPhase {
    ObsView view;
    double launches = 0;
    double untraced_p50_ms = 0;
    double traced_p50_ms = 0;
    cache::TemplateCache::Stats cache_before, cache_after;
    verifier::VerifierStats verifier; //!< per cold launch, 0 if none
    std::vector<double> submit_us;
    std::vector<LaunchSample> samples; //!< open loop only
    u64 queue_peak = 0;
    double attested_share = 0;
};

Json
layerTable(const TracedPhase &p, const SetupInfo &setup,
           const std::optional<ProbeTimes> &probe)
{
    const ObsView &v = p.view;
    const double n = p.launches;
    Json::Object t;
    auto num = [&t](const std::string &name, double value) {
        t[name] = Json::number(value);
    };
    auto ms = [&](const std::string &name, double ns) {
        num(name, perLaunch(ns, n) / 1e6);
    };
    auto probe_ms = [&](const std::string &name, const char *layer) {
        num(name, probe && probe->ms.count(layer) ? probe->ms.at(layer) : 0);
    };
    auto kernel_ns = [&](const char *k) {
        return v.counter("sevf_kernel_wall_ns_total", k);
    };
    auto kernel_bytes = [&](const char *k) {
        return v.counter("sevf_kernel_bytes_total", k);
    };

    num("workload.synth_s", setup.synth_s);
    num("workload.lz4_compress_calls",
          static_cast<double>(setup.lz4_compress_calls));
    probe_ms("image.parse_ms", "image.parse");
    probe_ms("vmm.stage_ms", "vmm.stage");
    ms("compress.lz4_decompress_ms", kernel_ns("lz4_decompress"));
    num("compress.lz4_decompress_mb_s",
          mbPerS(kernel_bytes("lz4_decompress"), kernel_ns("lz4_decompress")));
    ms("crypto.xex_encrypt_ms", kernel_ns("xex_encrypt"));
    ms("crypto.xex_decrypt_ms", kernel_ns("xex_decrypt"));
    num("crypto.xex_mb_s",
          mbPerS(kernel_bytes("xex_encrypt") + kernel_bytes("xex_decrypt"),
                 kernel_ns("xex_encrypt") + kernel_ns("xex_decrypt")));
    ms("crypto.sha256_ms", kernel_ns("sha256"));
    num("crypto.sha256_mb_s", mbPerS(kernel_bytes("sha256"),
                                       kernel_ns("sha256")));
    ms("crypto.measure_ms", kernel_ns("launch_digest"));

    num("psp.commands",
          perLaunch(v.counter("sevf_psp_commands_total"), n));
    ms("psp.update_data_ms", v.spans("psp.launch_update_data").first);
    num("psp.update_data_bytes",
          perLaunch(v.spanArgSum("psp.launch_update_data", "bytes"), n));
    ms("psp.premeasured_ms",
       v.spans("psp.launch_update_data_premeasured").first);
    ms("psp.gate_wait_ms", v.histogram("sevf_psp_gate_wait_ns").first);
    num("psp.retries", v.spans("retry.backoff").second);

    ms("memory.host_write_ms", v.spans("guest_memory.host_write").first);
    ms("memory.capture_snapshot_ms",
       v.spans("guest_memory.capture_snapshot").first);
    ms("memory.instantiate_snapshot_ms",
       v.spans("guest_memory.instantiate_snapshot").first);
    num("memory.cow_pages_materialized",
          perLaunch(v.counter("sevf_cow_pages_materialized_total"), n));

    probe_ms("verifier.boot_hashes_ms", "verifier.boot_hashes");
    probe_ms("verifier.run_ms", "verifier.run");
    num("verifier.bytes_hashed", p.verifier.bytes_hashed);
    num("verifier.bytes_copied", p.verifier.bytes_copied);
    num("verifier.pages_validated", p.verifier.pages_validated);
    probe_ms("guest.bootstrap_ms", "guest.bootstrap");
    probe_ms("attest.ms", "attest");

    const auto &cb = p.cache_before, &ca = p.cache_after;
    const double hits = ca.hits - cb.hits, misses = ca.misses - cb.misses;
    num("cache.hits", hits);
    num("cache.misses", misses);
    num("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses)
                                                  : 0);
    num("cache.evictions", ca.evictions - cb.evictions);
    ms("cache.capture_ms", v.spans("cache.capture").first);
    ms("cache.lookup_ms", v.spans("cache.lookup").first);
    num("cache.single_flight_waits",
          ca.single_flight_waits - cb.single_flight_waits);
    num("cache.bytes", ca.bytes);

    // Wall time of each launch that no span (program or probe) covers.
    std::vector<double> launch_ms, dark_ms = v.selfMs("launch");
    for (const obs::TraceEvent &e : v.events) {
        if (e.kind == obs::TraceEventKind::kWallSpan && e.name == "launch") {
            launch_ms.push_back(static_cast<double>(e.dur_ns) / 1e6);
        }
    }
    double mean_launch = 0, mean_dark = 0;
    for (std::size_t i = 0; i < launch_ms.size(); ++i) {
        mean_launch += launch_ms[i] / launch_ms.size();
        mean_dark += dark_ms[i] / launch_ms.size();
    }
    double probed = 0;
    if (probe) {
        for (const auto &[layer, self] : probe->self_ms) {
            if (layer == "image.parse") {
                continue; // runs inside the bootstrap loader
            }
            if (layer == "attest") {
                probed += self * p.attested_share;
            } else if (misses > 0) {
                probed += self * misses / std::max(1.0, hits + misses);
            }
        }
    }
    num("core.launch_ms", mean_launch);
    num("core.unattributed_ms", mean_dark - probed);
    auto [wait_sum, wait_n] = v.histogram("sevf_admission_queue_wait_ns");
    num("core.admission_wait_ms",
          wait_n > 0 ? static_cast<double>(wait_sum) / wait_n / 1e6 : 0);
    num("core.queue_peak", static_cast<double>(p.queue_peak));

    double submit = 0;
    for (double us : p.submit_us) {
        submit += us / p.submit_us.size();
    }
    std::map<u32, std::vector<double>> by_tenant;
    for (const LaunchSample &s : p.samples) {
        by_tenant[s.tenant].push_back(s.latency_ms);
    }
    std::vector<double> tenant_means;
    for (const auto &[tenant, lat] : by_tenant) {
        double m = 0;
        for (double x : lat) {
            m += x / lat.size();
        }
        tenant_means.push_back(m);
    }
    num("service.submit_us", submit);
    num("service.rejected",
             static_cast<double>(v.counter("sevf_service_rejected_total")));
    num("service.fairness", jain(tenant_means));

    for (const char *phase :
         {sim::phase::kVmm, sim::phase::kPreEncryption, sim::phase::kFirmware,
          sim::phase::kBootVerification, sim::phase::kBootstrapLoader,
          sim::phase::kLinuxBoot, sim::phase::kAttestation}) {
        ms(std::string("sim.phase.") + phase + "_ms",
           v.counter("sevf_launch_phase_sim_ns_total", phase));
    }
    num("obs.tracing_overhead_pct",
          p.untraced_p50_ms > 0
              ? (p.traced_p50_ms / p.untraced_p50_ms - 1) * 100
              : 0);
    std::vector<double> lag;
    for (const LaunchSample &s : p.samples) {
        lag.push_back(s.lag_ms);
    }
    std::sort(lag.begin(), lag.end());
    num("bench.gen_lag_ms",
          lag.empty() ? 0 : lag[std::min(lag.size() - 1,
                                         lag.size() * 99 / 100)]);
    return Json::object(std::move(t));
}

struct Options {
    std::string schedule;
    std::string mode = "run";
    double seconds = 10;
    std::string out;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--schedule") {
            o.schedule = value;
        } else if (flag == "--mode") {
            o.mode = value;
        } else if (flag == "--seconds") {
            o.seconds = std::atof(value.c_str());
        } else if (flag == "--out") {
            o.out = value;
        } else {
            die("unknown flag " + flag);
        }
    }
    if (o.schedule.empty() || o.out.empty() || o.seconds <= 0 ||
        (o.mode != "setup" && o.mode != "run" && o.mode != "trace")) {
        die("usage: sevf_perfbench --schedule FILE --mode setup|run|trace "
            "--seconds S --out FILE");
    }
    return o;
}

/** Closed loop: the run or traced phase, verification and probes. */
void
runClosed(const Schedule &s, const Options &opt, Gate &gate,
          Json::Object &out)
{
    const bool trace = opt.mode == "trace";
    ClosedLoop loop(s, gate);
    SetupInfo setup = loop.setup(trace);
    out["setup_s"] = Json::number(nowS());
    std::optional<TracedPhase> traced;
    if (opt.mode == "run") {
        double steal0 = stealTicks();
        ClosedLoop::RunResult r = loop.run(opt.seconds);
        double cpu_s = 0;
        for (double c : r.cpu_ms) {
            cpu_s += c * 1e-3;
        }
        out["cpu_s"] = Json::number(cpu_s);
        out["steal_ticks"] = Json::number(stealTicks() - steal0);
        out["latency_ms"] = jsonArray(r.latency_ms);
        out["cpu_ms"] = jsonArray(r.cpu_ms);
        out["ref_ms"] = jsonArray(r.ref.wall_ms);
        out["ref_cpu_ms"] = jsonArray(r.ref.cpu_ms);
    } else if (trace) {
        TracedPhase p;
        p.untraced_p50_ms = median(loop.run(opt.seconds / 2).latency_ms);
        p.cache_before = loop.platform().templateCache().stats();
        startTracing();
        std::vector<double> lat = loop.run(opt.seconds / 2).latency_ms;
        p.view = snapshotObs();
        stopTracing();
        p.cache_after = loop.platform().templateCache().stats();
        p.traced_p50_ms = median(lat);
        p.launches = static_cast<double>(lat.size());
        p.attested_share =
            workload::kernelSpec(s.key.kernel).has_network ? 1 : 0;
        traced = std::move(p);
    }
    std::vector<std::string> verified;
    if (opt.mode != "setup") {
        verified = loop.verify();
    }
    if (trace) {
        // Probe the first verified token: the gate holds its
        // measurement, which the probe must reproduce.
        std::optional<ProbeTimes> probe;
        Result<ProbeTimes> pt =
            probeMedian(s.key, tokenCmdline(s.tokens[1]), 3);
        if (!pt.isOk()) {
            gate.fail("layer probe failed: " + pt.status().toString());
        } else if (verified.empty() ||
                   pt->measurement !=
                       gate.records().at(verified.front()).measurement) {
            gate.fail("layer probe measurement differs from the library "
                      "launch: the probe no longer mirrors the strategy");
        } else {
            probe = pt.take();
        }
        // Verifier work counters of a real cold launch.
        core::LaunchRequest r = requestFor(s.key, s.host_threads, 1);
        r.vm.cmdline = tokenCmdline(s.tokens[1]);
        r.use_template_cache = false;
        Result<core::LaunchResult> lr =
            core::makeStrategy(s.key.kind)->launch(loop.platform(), r);
        if (lr.isOk()) {
            traced->verifier = lr->verifier_stats;
        }
        out["layers"] = layerTable(*traced, setup, probe);
    }
    out["boots"] = bootsJson(gate, s.key.label());
    out["digest"] = Json::string(digestOf(gate, verified));
    out["attempted"] = Json::number(static_cast<double>(loop.attempted()));
    out["completed"] = Json::number(static_cast<double>(loop.completed()));
}

/** Open loop: the rate ladder, or an untraced and a traced step. */
void
runOpen(const Schedule &s, const Options &opt, Gate &gate,
        Json::Object &out)
{
    const bool trace = opt.mode == "trace";
    OpenLoop loop(s, gate);
    SetupInfo setup = loop.setup(trace);
    out["setup_s"] = Json::number(nowS());
    if (opt.mode == "run") {
        // The generator (this thread) is the client, not the server, and
        // runs the reference task between steps, when the service is idle.
        double cpu0 = processCpuS() - threadCpuS();
        Json::Array steps;
        RefSeries ref;
        ref.burst(kStepRefs);
        for (const Step &step : s.steps) {
            OpenLoop::StepResult r = loop.runStep(step);
            std::vector<double> lat = latencies(r.samples);
            RefSeries before = ref;
            ref = RefSeries();
            ref.burst(kStepRefs);
            steps.push_back(Json::object(
                {{"rate", Json::number(step.rate)},
                 {"elapsed_s", Json::number(r.elapsed_s)},
                 {"latency_ms", jsonArray(lat)},
                 {"steal_at", jsonArray(r.steal_at)},
                 {"steal_ticks", jsonArray(r.steal_ticks)},
                 {"ref_before_ms", jsonArray(before.wall_ms)},
                 {"ref_after_ms", jsonArray(ref.wall_ms)},
                 {"ref_cpu_ms", jsonArray(before.cpu_ms)}}));
            if (median(lat) > s.stop_ms) {
                break; // deep overload: higher steps cannot pass
            }
        }
        out["cpu_s"] = Json::number(processCpuS() - threadCpuS() - cpu0);
        out["steps"] = Json::array(std::move(steps));
    } else if (trace) {
        TracedPhase p;
        p.untraced_p50_ms =
            median(latencies(loop.runStep(s.steps[0]).samples));
        p.cache_before = loop.platform().templateCache().stats();
        startTracing();
        OpenLoop::StepResult r = loop.runStep(s.steps[s.traced_step]);
        p.view = snapshotObs();
        stopTracing();
        p.cache_after = loop.platform().templateCache().stats();
        double attested = 0;
        for (const Request &q : s.steps[s.traced_step].requests) {
            attested += workload::kernelSpec(s.keys[q.key].kernel).has_network;
        }
        p.traced_p50_ms = median(latencies(r.samples));
        p.launches = static_cast<double>(r.samples.size());
        p.attested_share = perLaunch(attested, p.launches);
        p.samples = std::move(r.samples);
        p.submit_us = std::move(r.submit_us);
        p.queue_peak = loop.service().pipeline().stats().peak_queue_depth;
        // Attestation is the one probed layer on the warm path.
        std::optional<ProbeTimes> probe;
        KeySpec probe_key{core::StrategyKind::kSeveriFastBz,
                          workload::KernelConfig::kAws, 1};
        Result<ProbeTimes> pt =
            probeMedian(probe_key, std::string(vmm::kDefaultCmdline), 3);
        if (!pt.isOk()) {
            gate.fail("layer probe failed: " + pt.status().toString());
        } else {
            probe.emplace();
            probe->ms["attest"] = pt->ms.at("attest");
            probe->self_ms["attest"] = pt->self_ms.at("attest");
        }
        out["layers"] = layerTable(p, setup, probe);
    }
    loop.checkNoEvictions();
    out["boots"] = bootsJson(gate, "");
    out["digest"] = Json::string(digestOf(gate, loop.mixLabels()));
    out["attempted"] = Json::number(static_cast<double>(loop.attempted()));
    out["completed"] = Json::number(static_cast<double>(loop.completed()));
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Schedule s = readSchedule(opt.schedule);
    obs::setMetricsEnabled(false);
    obs::setTracingEnabled(false);

    Gate gate;
    Json::Object out = {{"workload", Json::string(s.workload)},
                        {"mode", Json::string(opt.mode)}};
    if (s.open_loop) {
        runOpen(s, opt, gate, out);
    } else {
        runClosed(s, opt, gate, out);
    }
    out["peak_rss_mib"] = Json::number(peakRssMib());
    out["host"] = hostFingerprint(opt.mode == "run");
    Json::Array errors;
    for (const std::string &e : gate.errors()) {
        errors.push_back(Json::string(e));
    }
    out["correct"] = Json::boolean(gate.ok());
    out["failed"] = Json::number(static_cast<double>(gate.failures()));
    out["errors"] = Json::array(std::move(errors));

    std::ofstream file(opt.out);
    file << stats::dumpJson(Json::object(std::move(out))) << "\n";
    if (!file) {
        die("cannot write " + opt.out);
    }
    return gate.ok() ? 0 : 1;
}
