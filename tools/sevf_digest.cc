/**
 * @file
 * The expected-measurement tool the paper ships with SEVeriFast (§4.2):
 * given the VM configuration, compute the SHA-256 launch digest the
 * guest owner should expect in attestation reports - without touching
 * a PSP. Supports every knob the boot strategies expose; --verify
 * cross-checks the prediction against a real launch.
 *
 *   usage: sevf_digest [--kernel lupine|aws|ubuntu] [--vcpus N]
 *                      [--mode sev|sev-es|sev-snp] [--scale 0..1]
 *                      [--verifier-size BYTES] [--initrd-codec none|lz4]
 *                      [--verify]
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "attest/expected_measurement.h"
#include "base/bytes.h"
#include "core/launch.h"
#include "stats/table.h"
#include "tools/sevf_cli_num.h"
#include "verifier/verifier_binary.h"
#include "vmm/layout.h"
#include "vmm/microvm.h"
#include "workload/synthetic.h"

using namespace sevf;
namespace layout = vmm::layout;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--kernel lupine|aws|ubuntu] [--vcpus N]\n"
                 "          [--mode sev|sev-es|sev-snp] [--scale 0..1]\n"
                 "          [--verifier-size BYTES]\n"
                 "          [--initrd-codec none|lz4] [--verify]\n",
                 argv0);
    std::exit(2);
}

/** Print why the command line was rejected, then the usage. */
[[noreturn]] void
reject(const char *argv0, const Status &status)
{
    std::fprintf(stderr, "%s\n", status.message().c_str());
    usage(argv0);
}

/** The value of a parsed flag, or a rejection naming the flag. */
template <typename T>
T
flagValue(const char *argv0, Result<T> parsed)
{
    if (!parsed.isOk()) {
        reject(argv0, parsed.status());
    }
    return parsed.take();
}

} // namespace

int
main(int argc, char **argv)
{
    core::LaunchRequest request;
    bool verify = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        // A value the launch layer refuses is rejected against the flag
        // that set it, before any artifact is built.
        auto validate = [&]() {
            Status valid = core::validateLaunchRequest(request);
            if (!valid.isOk()) {
                reject(argv[0], Status(valid.code(),
                                       arg + ": " + valid.message()));
            }
        };
        if (arg == "--kernel") {
            std::string k = next();
            if (k == "lupine") {
                request.kernel = workload::KernelConfig::kLupine;
            } else if (k == "aws") {
                request.kernel = workload::KernelConfig::kAws;
            } else if (k == "ubuntu") {
                request.kernel = workload::KernelConfig::kUbuntu;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--vcpus") {
            request.vm.vcpus =
                flagValue(argv[0], tools::parseU32(arg, next()));
        } else if (arg == "--mode") {
            std::string m = next();
            if (m == "sev") {
                request.sev_mode = memory::SevMode::kSev;
            } else if (m == "sev-es") {
                request.sev_mode = memory::SevMode::kSevEs;
            } else if (m == "sev-snp") {
                request.sev_mode = memory::SevMode::kSevSnp;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--scale") {
            request.scale =
                flagValue(argv[0], tools::parseFraction(arg, next(), 1.0));
            validate();
        } else if (arg == "--verifier-size") {
            request.verifier_size =
                flagValue(argv[0], tools::parseU64(arg, next()));
            validate();
        } else if (arg == "--initrd-codec") {
            std::string c = next();
            if (c == "none") {
                request.initrd_codec = compress::CodecKind::kNone;
            } else if (c == "lz4") {
                request.initrd_codec = compress::CodecKind::kLz4;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--verify") {
            verify = true;
        } else {
            usage(argv[0]);
        }
    }

    // Rebuild exactly what the VMM stages (all offline, no PSP).
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd_raw = workload::cachedInitrd(request.scale);
    ByteVec initrd_storage;
    ByteSpan staged_initrd = initrd_raw;
    if (request.initrd_codec != compress::CodecKind::kNone) {
        initrd_storage =
            compress::codecFor(request.initrd_codec).compress(initrd_raw);
        staged_initrd = initrd_storage;
    }

    verifier::BootHashes hashes = verifier::BootHashes::compute(
        art.bzimage, staged_initrd, std::nullopt);

    ByteVec verifier_bin =
        request.verifier_size == 0
            ? verifier::verifierBinary()
            : verifier::bloatedVerifierBinary(request.verifier_size);

    // A scratch VM (no ASID, no PSP) to materialize the staged regions.
    vmm::MicroVm vm(request.vm, 0x100000000ull, /*asid=*/0);
    Gpa initrd_final = request.initrd_codec == compress::CodecKind::kNone
                           ? layout::kInitrdPrivateGpa
                           : layout::kInitrdDecompressedGpa;
    Result<vmm::BootStructs> structs =
        vm.stageBootStructs(initrd_final, initrd_raw.size(), 0);
    if (!structs.isOk()) {
        std::fprintf(stderr, "error: %s\n",
                     structs.status().toString().c_str());
        return 1;
    }
    Result<std::vector<attest::PreEncryptedRegion>> plan =
        vm.buildPreEncryptionPlan(verifier_bin, hashes, *structs);
    if (!plan.isOk()) {
        std::fprintf(stderr, "error: %s\n",
                     plan.status().toString().c_str());
        return 1;
    }

    std::optional<attest::VmsaInfo> vmsa;
    if (memory::hasEncryptedState(request.sev_mode)) {
        vmsa = attest::VmsaInfo{request.vm.vcpus, request.vm.sev_policy,
                                layout::kVmsaGpa};
    }
    crypto::Sha256Digest expected =
        attest::expectedMeasurement(*plan, vmsa);

    stats::Table table({"region", "gpa", "bytes"});
    char gpa_buf[32];
    for (const attest::PreEncryptedRegion &r : *plan) {
        std::snprintf(gpa_buf, sizeof(gpa_buf), "0x%llx",
                      static_cast<unsigned long long>(r.gpa));
        table.addRow({r.name, gpa_buf,
                      std::to_string(r.bytes.size())});
    }
    if (vmsa) {
        std::snprintf(gpa_buf, sizeof(gpa_buf), "0x%llx",
                      static_cast<unsigned long long>(vmsa->base_gpa));
        table.addRow({"vmsa x" + std::to_string(vmsa->vcpus), gpa_buf,
                      std::to_string(vmsa->vcpus * kPageSize)});
    }
    table.print();
    std::printf("expected launch digest (%s, %u vCPU):\n  %s\n",
                memory::sevModeName(request.sev_mode), request.vm.vcpus,
                toHex(ByteSpan(expected.data(), expected.size())).c_str());

    if (verify) {
        core::Platform platform;
        Result<core::LaunchResult> run =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, request);
        if (!run.isOk()) {
            std::fprintf(stderr, "verify launch failed: %s\n",
                         run.status().toString().c_str());
            return 1;
        }
        bool match = run->measurement == expected;
        std::printf("live launch digest:\n  %s\n  -> %s\n",
                    toHex(ByteSpan(run->measurement.data(),
                                   run->measurement.size()))
                        .c_str(),
                    match ? "MATCH" : "MISMATCH");
        return match ? 0 : 1;
    }
    return 0;
}
