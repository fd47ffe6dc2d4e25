/**
 * @file
 * End-to-end strategy tests at small workload scale: all five
 * strategies boot, produce sane traces/phases, attest where expected,
 * and preserve the paper's qualitative ordering.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "core/launch.h"
#include "core/report.h"
#include "workload/synthetic.h"

namespace sevf::core {
namespace {

constexpr double kScale = 1.0 / 32.0;

LaunchRequest
smallRequest(workload::KernelConfig kernel)
{
    LaunchRequest req;
    req.kernel = kernel;
    req.scale = kScale;
    return req;
}

class StrategyTest : public ::testing::TestWithParam<StrategyKind>
{
  protected:
    StrategyTest() : platform_(sim::CostParams::deterministic()) {}
    Platform platform_;
};

TEST_P(StrategyTest, LaunchesAwsKernel)
{
    std::unique_ptr<BootStrategy> strategy = makeStrategy(GetParam());
    Result<LaunchResult> result =
        strategy->launch(platform_, smallRequest(workload::KernelConfig::kAws));
    ASSERT_TRUE(result.isOk()) << result.status().toString();

    EXPECT_GT(result->totalTime(), sim::Duration::zero());
    EXPECT_GE(result->totalTime(), result->bootTime());
    EXPECT_FALSE(result->timeline.events().empty());
    // Every strategy ends in the Linux boot phase.
    EXPECT_GT(result->trace.phaseTotal(sim::phase::kLinuxBoot),
              sim::Duration::zero());

    if (GetParam() == StrategyKind::kStockFirecracker) {
        EXPECT_EQ(result->pre_encrypted_bytes, 0u);
        EXPECT_FALSE(result->attested);
    } else {
        EXPECT_GT(result->pre_encrypted_bytes, 0u);
        EXPECT_TRUE(result->attested);
        EXPECT_GT(result->provisioned_secret_bytes, 0u);
        EXPECT_GT(result->trace.phaseTotal(sim::phase::kPreEncryption),
                  sim::Duration::zero());
    }
}

TEST_P(StrategyTest, LupineSkipsAttestation)
{
    // Lupine has no networking (§6.1): attestation must be skipped.
    std::unique_ptr<BootStrategy> strategy = makeStrategy(GetParam());
    Result<LaunchResult> result = strategy->launch(
        platform_, smallRequest(workload::KernelConfig::kLupine));
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_FALSE(result->attested);
    EXPECT_EQ(result->trace.phaseTotal(sim::phase::kAttestation),
              sim::Duration::zero());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Values(StrategyKind::kStockFirecracker,
                      StrategyKind::kQemuOvmfSev,
                      StrategyKind::kSevDirectBoot,
                      StrategyKind::kSeveriFastBz,
                      StrategyKind::kSeveriFastVmlinux),
    [](const auto &info) {
        std::string name = strategyName(info.param);
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

/** Every field of every step, not just the totals. */
void
expectTracesEqual(const sim::BootTrace &a, const sim::BootTrace &b)
{
    ASSERT_EQ(a.steps().size(), b.steps().size());
    for (std::size_t i = 0; i < a.steps().size(); ++i) {
        const sim::Step &sa = a.steps()[i];
        const sim::Step &sb = b.steps()[i];
        EXPECT_EQ(sa.kind, sb.kind) << "step " << i;
        EXPECT_EQ(sa.duration.ns(), sb.duration.ns()) << "step " << i;
        EXPECT_EQ(sa.phase, sb.phase) << "step " << i;
        EXPECT_EQ(sa.label, sb.label) << "step " << i;
        EXPECT_EQ(sa.annotation, sb.annotation) << "step " << i;
    }
}

class RequestValidationTest : public StrategyTest
{
  protected:
    /** launch() must refuse @p req with a typed error, before any work. */
    void
    expectRejected(const LaunchRequest &req)
    {
        Result<LaunchResult> result =
            BootStrategy(GetParam()).launch(platform_, req);
        ASSERT_FALSE(result.isOk());
        EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument)
            << result.status().toString();
    }
};

TEST_P(RequestValidationTest, RejectsScaleZero)
{
    // Regression: scale 0 reached buildKernelArtifacts and panicked.
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.scale = 0.0;
    expectRejected(req);
    EXPECT_EQ(validateLaunchRequest(req).code(),
              ErrorCode::kInvalidArgument);
}

TEST_P(RequestValidationTest, RejectsNegativeScale)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.scale = -0.5;
    expectRejected(req);
}

TEST_P(RequestValidationTest, RejectsScaleAboveOne)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.scale = 1.5;
    expectRejected(req);
}

TEST_P(RequestValidationTest, RejectsNanScale)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.scale = std::nan("");
    expectRejected(req);
}

TEST_P(RequestValidationTest, RejectsVerifierSmallerThanItsBanner)
{
    // Regression: an 8-byte verifier overflowed the 22-byte banner copy.
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.verifier_size = 8;
    expectRejected(req);
    req.verifier_size = 21;
    expectRejected(req);
}

TEST_P(RequestValidationTest, RejectsVerifierOverlappingPageTables)
{
    // The shim sits at 0x10000; the page tables start at 0x200000.
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.verifier_size = 0x1F0000 + 1;
    expectRejected(req);
}

TEST(RequestValidation, AcceptsBoundaryValues)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.scale = 1.0;
    EXPECT_TRUE(validateLaunchRequest(req).isOk());
    req.verifier_size = 22;
    EXPECT_TRUE(validateLaunchRequest(req).isOk());
    req.verifier_size = 0x1F0000;
    EXPECT_TRUE(validateLaunchRequest(req).isOk());
}

TEST(RequestValidation, SmallestVerifierLaunches)
{
    Platform platform(sim::CostParams::deterministic());
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.verifier_size = 22;
    Result<LaunchResult> result =
        BootStrategy(StrategyKind::kSeveriFastBz).launch(platform, req);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_GT(result->pre_encrypted_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, RequestValidationTest,
    ::testing::Values(StrategyKind::kStockFirecracker,
                      StrategyKind::kQemuOvmfSev,
                      StrategyKind::kSevDirectBoot,
                      StrategyKind::kSeveriFastBz,
                      StrategyKind::kSeveriFastVmlinux),
    [](const auto &info) {
        std::string name = strategyName(info.param);
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(Reentrancy, SharedStrategyMatchesSerialLaunches)
{
    // Strategies keep no per-launch state, so one instance may serve
    // concurrent launches: 4 threads share it, launching both same-key
    // requests (single-flight: one cold build, the rest warm) and
    // distinct-key ones. Each result must equal a serial launch.
    const BootStrategy strategy(StrategyKind::kSeveriFastBz);
    std::vector<LaunchRequest> requests;
    for (u64 i = 0; i < 8; ++i) {
        LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
        req.seed = 100 + i;
        if (i % 2 == 1) {
            // Odd requests get their own key; even ones share one.
            req.vm.cmdline += " reentrancy=" + std::to_string(i);
        }
        requests.push_back(req);
    }

    Platform serial(sim::CostParams::deterministic());
    std::vector<LaunchResult> expected;
    for (const LaunchRequest &req : requests) {
        Result<LaunchResult> r = strategy.launch(serial, req);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        expected.push_back(r.take());
    }

    Platform shared(sim::CostParams::deterministic());
    std::vector<std::optional<Result<LaunchResult>>> got(requests.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < requests.size(); i += 4) {
                got[i].emplace(strategy.launch(shared, requests[i]));
            }
        });
    }
    for (std::thread &th : threads) {
        th.join();
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        ASSERT_TRUE(got[i].has_value());
        ASSERT_TRUE(got[i]->isOk()) << got[i]->status().toString();
        const LaunchResult &r = **got[i];
        EXPECT_EQ(r.measurement, expected[i].measurement);
        EXPECT_EQ(r.attested, expected[i].attested);
        EXPECT_EQ(r.provisioned_secret_bytes,
                  expected[i].provisioned_secret_bytes);
        EXPECT_EQ(r.pre_encrypted_bytes, expected[i].pre_encrypted_bytes);
        expectTracesEqual(r.trace, expected[i].trace);
    }
}

class OrderingTest : public ::testing::Test
{
  protected:
    OrderingTest() : platform_(sim::CostParams::deterministic()) {}

    sim::Duration
    bootTimeOf(StrategyKind kind, workload::KernelConfig kernel)
    {
        Result<LaunchResult> r =
            makeStrategy(kind)->launch(platform_, smallRequest(kernel));
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return r->bootTime();
    }

    Platform platform_;
};

TEST_F(OrderingTest, PaperShapeHolds)
{
    using K = workload::KernelConfig;
    sim::Duration stock = bootTimeOf(StrategyKind::kStockFirecracker, K::kAws);
    sim::Duration sevf = bootTimeOf(StrategyKind::kSeveriFastBz, K::kAws);
    sim::Duration qemu = bootTimeOf(StrategyKind::kQemuOvmfSev, K::kAws);
    sim::Duration direct = bootTimeOf(StrategyKind::kSevDirectBoot, K::kAws);

    // Stock < SEVeriFast < QEMU; SEV direct boot is also far slower
    // than SEVeriFast (pre-encrypting the kernel, §3.2).
    EXPECT_LT(stock, sevf);
    EXPECT_LT(sevf, qemu);
    EXPECT_LT(sevf, direct);
    // SEVeriFast cuts >= 80% off QEMU even at 1/32 artifact scale
    // (constants dominate; full scale is checked by calibration_test).
    EXPECT_LT(sevf.toSecF(), qemu.toSecF() * 0.20);
}

TEST_F(OrderingTest, BiggerKernelsBootSlower)
{
    using K = workload::KernelConfig;
    sim::Duration lupine = bootTimeOf(StrategyKind::kSeveriFastBz, K::kLupine);
    sim::Duration aws = bootTimeOf(StrategyKind::kSeveriFastBz, K::kAws);
    sim::Duration ubuntu = bootTimeOf(StrategyKind::kSeveriFastBz, K::kUbuntu);
    EXPECT_LT(lupine, aws);
    EXPECT_LT(aws, ubuntu);
}

TEST_F(OrderingTest, PreEncryptionTinyForSeveriFastHugeForDirect)
{
    using K = workload::KernelConfig;
    Result<LaunchResult> sevf = makeStrategy(StrategyKind::kSeveriFastBz)
                                    ->launch(platform_, smallRequest(K::kAws));
    Result<LaunchResult> direct =
        makeStrategy(StrategyKind::kSevDirectBoot)
            ->launch(platform_, smallRequest(K::kAws));
    ASSERT_TRUE(sevf.isOk());
    ASSERT_TRUE(direct.isOk());
    // SEVeriFast's root of trust is ~21 KiB; direct boot measures MiBs.
    EXPECT_LT(sevf->pre_encrypted_bytes, 32 * kKiB);
    EXPECT_GT(direct->pre_encrypted_bytes, 100 * kKiB);
    EXPECT_LT(sevf->trace.phaseTotal(sim::phase::kPreEncryption),
              direct->trace.phaseTotal(sim::phase::kPreEncryption));
}

TEST_F(OrderingTest, OutOfBandHashingSavesVmmTime)
{
    LaunchRequest with = smallRequest(workload::KernelConfig::kUbuntu);
    LaunchRequest without = with;
    without.out_of_band_hashing = false;
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, with);
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, without);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_LT(a->trace.phaseTotal(sim::phase::kVmm),
              b->trace.phaseTotal(sim::phase::kVmm));
}

TEST_F(OrderingTest, BloatedVerifierCostsMorePreEncryption)
{
    LaunchRequest small = smallRequest(workload::KernelConfig::kAws);
    LaunchRequest bloated = small;
    bloated.verifier_size = 256 * kKiB; // td-shim-style featureful shim
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, small);
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, bloated);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk()) << b.status().toString();
    EXPECT_LT(a->trace.phaseTotal(sim::phase::kPreEncryption),
              b->trace.phaseTotal(sim::phase::kPreEncryption));
}

TEST_F(OrderingTest, CompressedInitrdIsSlower)
{
    // Fig 5: compressing the initrd adds decompression without enough
    // verification savings.
    LaunchRequest raw = smallRequest(workload::KernelConfig::kAws);
    LaunchRequest packed = raw;
    packed.initrd_codec = compress::CodecKind::kLz4;
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, raw);
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, packed);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk()) << b.status().toString();
    sim::Duration a_guest =
        a->trace.phaseTotal(sim::phase::kBootVerification) +
        a->trace.phaseTotal(sim::phase::kBootstrapLoader);
    sim::Duration b_guest =
        b->trace.phaseTotal(sim::phase::kBootVerification) +
        b->trace.phaseTotal(sim::phase::kBootstrapLoader);
    EXPECT_LT(a_guest, b_guest);
}

TEST_F(OrderingTest, MeasurementIsReproducibleAcrossLaunches)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    // Same components => same launch digest, despite per-VM keys/SPAs.
    EXPECT_EQ(a->measurement, b->measurement);
}


TEST_F(OrderingTest, SevGenerationsOrdered)
{
    // SEV < SEV-ES < SEV-SNP in boot cost; attestation works on all
    // generations with encrypted state measured where it exists.
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    req.sev_mode = memory::SevMode::kSev;
    Result<LaunchResult> sev =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    req.sev_mode = memory::SevMode::kSevEs;
    Result<LaunchResult> es =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    req.sev_mode = memory::SevMode::kSevSnp;
    Result<LaunchResult> snp =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(sev.isOk()) << sev.status().toString();
    ASSERT_TRUE(es.isOk()) << es.status().toString();
    ASSERT_TRUE(snp.isOk());

    EXPECT_LT(sev->bootTime(), es->bootTime());
    EXPECT_LT(es->bootTime(), snp->bootTime());
    // All generations attest end to end.
    EXPECT_TRUE(sev->attested);
    EXPECT_TRUE(es->attested);
    EXPECT_TRUE(snp->attested);
    // The VMSA joins the measurement on ES/SNP, so digests differ from
    // base SEV even with identical components.
    EXPECT_EQ(es->measurement, snp->measurement);
    EXPECT_NE(sev->measurement, es->measurement);
    // Only SNP pays the pvalidate sweep.
    EXPECT_EQ(sev->verifier_stats.pages_validated, 0u);
    EXPECT_GT(snp->verifier_stats.pages_validated, 0u);
}

TEST_F(OrderingTest, VcpuCountChangesEsMeasurement)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    req.sev_mode = memory::SevMode::kSevSnp;
    Result<LaunchResult> one =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    req.vm.vcpus = 2;
    Result<LaunchResult> two =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(one.isOk());
    ASSERT_TRUE(two.isOk()) << two.status().toString();
    EXPECT_NE(one->measurement, two->measurement);
    EXPECT_TRUE(two->attested) << "owner must model 2 VMSAs";
}


TEST_F(OrderingTest, GuestKaslrWorksUnderSev)
{
    // §8 extension: in-monitor KASLR is broken by SEVeriFast, but the
    // in-guest bootstrap loader can randomize instead - invisible to
    // the host, no effect on the measurement.
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.guest_kaslr = true;
    req.seed = 5;
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    req.seed = 6;
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    ASSERT_TRUE(b.isOk());
    // Different in-guest entropy, different layout...
    EXPECT_NE(a->kaslr_slide, b->kaslr_slide);
    // ...same measurement: the slide never leaves the guest.
    EXPECT_EQ(a->measurement, b->measurement);
}

TEST_F(OrderingTest, JsonReportWellFormedAndComplete)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    Result<LaunchResult> run =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(run.isOk());
    std::string json = launchResultToJson(*run);
    // Structural smoke checks (full parse is out of scope here).
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"strategy\":\"severifast-bzimage\""),
              std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);
    EXPECT_NE(json.find("\"pre_encryption\""), std::string::npos);
    EXPECT_NE(json.find("\"measurement\""), std::string::npos);
    EXPECT_NE(json.find("\"steps\""), std::string::npos);
    // Balanced braces/brackets.
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);

    // Compact form omits the steps array.
    std::string compact = launchResultToJson(*run, false);
    EXPECT_EQ(compact.find("\"steps\""), std::string::npos);
    EXPECT_LT(compact.size(), json.size());
}

TEST(StrategyNames, AllDistinct)
{
    EXPECT_STREQ(strategyName(StrategyKind::kSeveriFastBz),
                 "severifast-bzimage");
    EXPECT_STREQ(strategyName(StrategyKind::kStockFirecracker),
                 "stock-firecracker");
}

} // namespace
} // namespace sevf::core
