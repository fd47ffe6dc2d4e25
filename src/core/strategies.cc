/**
 * @file
 * The launch skeleton and the five boot schemes (see core/launch.h).
 * Each scheme's cold body runs the boot *functionally* - real bytes
 * staged, measured, encrypted, verified, decompressed - up to the
 * template point, while charging calibrated virtual time into the
 * BootTrace with the paper's phase labels; BootStrategy::launch owns
 * everything after it (capture, guest tail, attestation) for cold and
 * warm launches alike.
 */
#include "core/launch.h"

#include <memory>
#include <optional>

#include "attest/expected_measurement.h"
#include "attest/guest_owner.h"
#include "base/bytes.h"
#include "base/parallel.h"
#include "cache/template_cache.h"
#include "core/trace_builder.h"
#include "crypto/measurement.h"
#include "firmware/ovmf.h"
#include "guest/attestation_client.h"
#include "guest/bootstrap_loader.h"
#include "image/bzimage.h"
#include "image/elf.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "psp/psp.h"
#include "verifier/verifier_binary.h"
#include "vmm/fw_cfg.h"
#include "vmm/layout.h"
#include "vmm/microvm.h"
#include "workload/synthetic.h"

namespace sevf::core {

namespace {

namespace layout = vmm::layout;
using sim::phase::kAttestation;
using sim::phase::kBootVerification;
using sim::phase::kBootstrapLoader;
using sim::phase::kFirmware;
using sim::phase::kLinuxBoot;
using sim::phase::kPreEncryption;
using sim::phase::kVmm;

/** Private destination for the attestation secret. */
constexpr Gpa kSecretGpa = 0x280000;

/** Assign+validate every page the guest does not already own. */
Status
claimRemainingPages(memory::GuestMemory &mem)
{
    for (Gpa page = 0; page < mem.size(); page += kPageSize) {
        if (mem.rmp().entryAt(mem.spaOf(page)).validated) {
            continue;
        }
        SEVF_RETURN_IF_ERROR(
            mem.rmp().rmpUpdate(mem.spaOf(page), mem.asid(), page, true));
        SEVF_RETURN_IF_ERROR(
            mem.rmp().pvalidate(mem.spaOf(page), mem.asid(), page, true));
    }
    return Status::ok();
}

/** The guest-owner secret provisioned on successful attestation. */
ByteVec
ownerSecret(u64 seed)
{
    return toBytes("disk-key-" + std::to_string(seed));
}

/**
 * A launch at the template point, where a cold body hands over to
 * BootStrategy::launch: the VM, its PSP handle, the plan the PSP
 * measured, and whether the trace already holds the guest tail.
 */
struct TemplatePoint {
    std::shared_ptr<vmm::MicroVm> vm;
    psp::GuestHandle handle = 0;
    std::vector<attest::PreEncryptedRegion> plan;
    /** Set by the non-SEV baseline: nothing is measured, so its whole
     *  boot (tail included) is template state. */
    bool tail_in_steps = false;
};

/** A fresh VM in its own SPA window; SEV kinds also get an ASID. */
std::shared_ptr<vmm::MicroVm>
makeVm(Platform &platform, const LaunchRequest &request, StrategyKind kind)
{
    const Spa window = platform.allocateSpaWindow(request.vm.memory_size);
    const u32 asid = kind == StrategyKind::kStockFirecracker
                         ? 0
                         : platform.psp().allocateAsid();
    return std::make_shared<vmm::MicroVm>(request.vm, window, asid,
                                          request.sev_mode);
}

/**
 * The PSP command sequence every SEV launch issues, cold or warm:
 * LAUNCH_START (private or shared platform key), the plan's updates
 * (@p update_plan), LAUNCH_UPDATE_VMSA per vCPU on SEV-ES/SNP,
 * LAUNCH_FINISH (then KVM pins the guest pages), and LAUNCH_MEASURE
 * into result.measurement. Each command is charged to @p tb right after
 * it runs; warm launches pass nullptr, because they replay the cold
 * launch's recorded steps.
 */
template <typename UpdatePlan>
Result<psp::GuestHandle>
runPspLaunch(Platform &platform, const LaunchRequest &request,
             memory::GuestMemory &mem, TraceBuilder *tb,
             LaunchResult &result, UpdatePlan &&update_plan)
{
    const sim::CostModel &cost = platform.cost();
    psp::Psp &psp = platform.psp();
    SEVF_ASSIGN_OR_RETURN(
        psp::GuestHandle handle,
        request.share_platform_key
            ? psp.launchStartShared(mem, request.vm.sev_policy)
            : psp.launchStart(mem, request.vm.sev_policy));
    if (tb != nullptr && request.share_platform_key) {
        tb->psp(cost.pspLaunchStartShared(), kVmm,
                "sev_launch_start_shared_key");
    } else if (tb != nullptr) {
        tb->psp(cost.pspLaunchStart(), kVmm, "sev_launch_start");
    }
    SEVF_RETURN_IF_ERROR(update_plan(handle));
    // SEV-ES/SNP: measure + encrypt the initial register state so the
    // host cannot choose the guest's entry context.
    if (memory::hasEncryptedState(mem.sevMode())) {
        for (u32 cpu = 0; cpu < request.vm.vcpus; ++cpu) {
            SEVF_RETURN_IF_ERROR(psp.launchUpdateVmsa(
                handle, mem, cpu, layout::kVmsaGpa + cpu * kPageSize));
            if (tb != nullptr) {
                tb->psp(cost.pspLaunchUpdate(kPageSize, mem.sevMode(),
                                             request.vm.hugepages),
                        kPreEncryption,
                        "launch_update:vmsa" + std::to_string(cpu));
            }
        }
    }
    SEVF_RETURN_IF_ERROR(psp.launchFinish(handle));
    if (tb != nullptr) {
        tb->psp(cost.pspLaunchFinish(), kVmm, "sev_launch_finish");
        tb->cpu(cost.kvmPinPages(mem.size()), kVmm, "kvm_pin_pages");
    }
    SEVF_ASSIGN_OR_RETURN(result.measurement, psp.launchMeasure(handle));
    return handle;
}

/** Charge the cold PSP launch flow for @p plan and execute it. */
Result<psp::GuestHandle>
runLaunchFlow(Platform &platform, TraceBuilder &tb, memory::GuestMemory &mem,
              const std::vector<attest::PreEncryptedRegion> &plan,
              const LaunchRequest &request, LaunchResult &result)
{
    const sim::CostModel &cost = platform.cost();
    if (memory::hasIntegrity(mem.sevMode())) {
        // RMP initialization only exists on SNP parts.
        tb.psp(cost.pspRmpInit(), kVmm, "psp_rmp_init");
    }
    result.pre_encrypted_bytes = attest::totalPreEncryptedBytes(plan);
    return runPspLaunch(
        platform, request, mem, &tb, result,
        [&](psp::GuestHandle handle) -> Status {
            for (const attest::PreEncryptedRegion &r : plan) {
                SEVF_RETURN_IF_ERROR(platform.psp().launchUpdateData(
                    handle, mem, r.gpa, r.bytes.size()));
                tb.psp(cost.pspLaunchUpdate(r.bytes.size(), mem.sevMode(),
                                            request.vm.hugepages),
                       kPreEncryption, "launch_update:" + r.name);
            }
            return Status::ok();
        });
}

// ===================================================================
// Cold bodies: each runs one scheme up to the template point.
// ===================================================================

/** Stock Firecracker (non-SEV baseline, §2.1). */
Result<TemplatePoint>
coldStockFirecracker(Platform &platform, const LaunchRequest &request,
                     TraceBuilder &tb, LaunchResult &)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelSpec &spec = workload::kernelSpec(request.kernel);
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd = workload::cachedInitrd(request.scale);

    tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
    TemplatePoint at;
    at.vm = makeVm(platform, request, StrategyKind::kStockFirecracker);
    SEVF_ASSIGN_OR_RETURN(vmm::DirectBootLoad load,
                          at.vm->directBoot(art.vmlinux, initrd));
    tb.cpu(cost.vmmLoad(load.kernel_file_bytes + load.initrd_bytes +
                        load.structs.totalBytes()),
           kVmm, "load_kernel_and_initrd");
    tb.cpu(cost.fcSetup(), kVmm, "vm_setup");

    tb.cpu(cost.linuxBoot(spec.base_linux_boot, /*snp=*/false), kLinuxBoot,
           "linux_boot");
    tb.cpu(cost.initExec(), kLinuxBoot, "exec_init");
    at.tail_in_steps = true;
    return at;
}

/** SEVeriFast (§4): minimal verifier + measured direct boot. */
Result<TemplatePoint>
coldSeveriFast(Platform &platform, const LaunchRequest &request,
               TraceBuilder &tb, LaunchResult &result, bool bzimage)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd_raw = workload::cachedInitrd(request.scale);

    // Kernel image per the requested format/codec (built offline).
    ByteVec kernel_storage;
    ByteSpan kernel_image;
    if (bzimage) {
        if (request.kernel_codec == compress::CodecKind::kLz4) {
            kernel_image = art.bzimage;
        } else {
            image::BzImageBuildConfig cfg;
            cfg.codec = request.kernel_codec;
            kernel_storage = image::buildBzImage(art.vmlinux, cfg);
            kernel_image = kernel_storage;
        }
    } else {
        kernel_image = art.vmlinux;
    }

    // Initrd, optionally compressed (the Fig 5 trade-off).
    ByteVec initrd_storage;
    ByteSpan staged_initrd;
    if (request.initrd_codec == compress::CodecKind::kNone) {
        staged_initrd = initrd_raw;
    } else {
        initrd_storage =
            compress::codecFor(request.initrd_codec).compress(initrd_raw);
        staged_initrd = initrd_storage;
    }

    ByteVec bloated_verifier;
    if (request.verifier_size != 0) {
        bloated_verifier =
            verifier::bloatedVerifierBinary(request.verifier_size);
    }
    const ByteVec &verifier_bin = request.verifier_size == 0
                                      ? verifier::verifierBinary()
                                      : bloated_verifier;

    // ---- VMM side ----
    tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
    tb.cpu(cost.kvmSnpInit(), kVmm, "kvm_snp_init");
    TemplatePoint at;
    at.vm = makeVm(platform, request,
                   bzimage ? StrategyKind::kSeveriFastBz
                           : StrategyKind::kSeveriFastVmlinux);
    vmm::MicroVm &vm = *at.vm;

    // Stage components into shared windows (Fig 2 step 3).
    if (bzimage) {
        SEVF_RETURN_IF_ERROR(
            vm.stageMeasuredComponents(kernel_image, staged_initrd)
                .status());
    } else {
        vmm::FwCfg fw(vm.memory(), layout::kKernelStagingGpa,
                      layout::kInitrdStagingGpa - layout::kKernelStagingGpa);
        SEVF_RETURN_IF_ERROR(stageVmlinuxViaFwCfg(fw, kernel_image));
        SEVF_RETURN_IF_ERROR(
            vm.memory().hostWrite(layout::kInitrdStagingGpa, staged_initrd));
    }
    tb.cpu(cost.vmmLoad(kernel_image.size() + staged_initrd.size()), kVmm,
           "stage_components");

    // Boot structures (Fig 7 pre-encrypt set).
    const Gpa initrd_final =
        request.initrd_codec == compress::CodecKind::kNone
            ? layout::kInitrdPrivateGpa
            : layout::kInitrdDecompressedGpa;
    SEVF_ASSIGN_OR_RETURN(
        vmm::BootStructs structs,
        vm.stageBootStructs(initrd_final, initrd_raw.size(), 0));
    tb.cpu(cost.fcSetup(), kVmm, "vm_setup");

    // Component hashes: out-of-band by default (§4.3); otherwise charge
    // the in-VMM hashing the paper eliminates.
    verifier::BootHashes hashes;
    if (bzimage) {
        hashes = verifier::BootHashes::compute(kernel_image, staged_initrd,
                                               std::nullopt);
    } else {
        SEVF_ASSIGN_OR_RETURN(hashes.kernel,
                              verifier::vmlinuxStreamDigest(kernel_image));
        hashes.kernel_size = kernel_image.size();
        hashes.initrd = crypto::Sha256::digest(staged_initrd);
        hashes.initrd_size = staged_initrd.size();
    }
    if (!request.out_of_band_hashing) {
        tb.cpu(cost.vmmHash(kernel_image.size() + staged_initrd.size()),
               kVmm, "hash_components_in_vmm");
    }

    SEVF_ASSIGN_OR_RETURN(
        at.plan, vm.buildPreEncryptionPlan(verifier_bin, hashes, structs));
    SEVF_ASSIGN_OR_RETURN(at.handle,
                          runLaunchFlow(platform, tb, vm.memory(), at.plan,
                                        request, result));

    // ---- Boot verifier (in-guest) ----
    verifier::VerifierInputs inputs;
    inputs.kernel_staging = layout::kKernelStagingGpa;
    inputs.initrd_staging = layout::kInitrdStagingGpa;
    inputs.hash_table_gpa = layout::kHashTableGpa;
    inputs.kernel_private = layout::kBzImagePrivateGpa;
    inputs.initrd_private = layout::kInitrdPrivateGpa;
    inputs.page_table_root = layout::kPageTableGpa;
    inputs.kernel_kind = bzimage ? verifier::KernelImageKind::kBzImage
                                 : verifier::KernelImageKind::kVmlinux;
    inputs.hugepages = request.vm.hugepages;
    inputs.keep_shared = {
        {layout::kKernelStagingGpa, kernel_image.size()},
        {layout::kInitrdStagingGpa, staged_initrd.size()},
    };

    verifier::BootVerifier boot_verifier(vm.memory());
    SEVF_ASSIGN_OR_RETURN(verifier::VerifiedBoot boot,
                          boot_verifier.run(inputs));
    result.verifier_stats = boot.stats;

    tb.cpu(cost.pvalidate(boot.stats.pages_validated * kPageSize,
                          request.vm.hugepages),
           kBootVerification, "pvalidate_sweep");
    tb.cpu(cost.pageTableInit(), kBootVerification, "init_page_tables");
    tb.cpu(cost.cpuCopy(boot.stats.bytes_copied), kBootVerification,
           "copy_to_private");
    tb.cpu(cost.cpuSha256(boot.stats.bytes_hashed), kBootVerification,
           "rehash_components");
    tb.cpu(cost.verifierFixed(), kBootVerification, "verify_digests");

    // ---- Bootstrap loader (bzImage path only, §4.4) ----
    if (bzimage) {
        guest::KaslrConfig kaslr;
        if (request.guest_kaslr) {
            kaslr.enabled = true;
            kaslr.seed = request.seed ^ 0x4a514c; // in-guest RDRAND
            // Keep the slid kernel clear of the private bzImage region
            // that starts at 80 MiB.
            u64 load_end = layout::kKernelLoadGpa +
                           workload::kernelSpec(request.kernel).vmlinux_size +
                           2 * kMiB;
            kaslr.max_slide =
                load_end < layout::kBzImagePrivateGpa
                    ? alignDown(layout::kBzImagePrivateGpa - load_end,
                                kHugePageSize)
                    : 0;
        }
        SEVF_ASSIGN_OR_RETURN(
            guest::LoadedKernel loaded,
            guest::runBootstrapLoader(vm.memory(), boot.kernel_gpa,
                                      boot.kernel_size, true, kaslr));
        result.kaslr_slide = loaded.kaslr_slide;
        tb.cpu(cost.bootstrapFixed(), kBootstrapLoader, "bootstrap_entry");
        tb.cpu(cost.decompressCost(loaded.codec, loaded.decompressed_bytes),
               kBootstrapLoader, "decompress_kernel");
    }

    // Compressed-initrd variant: the guest must inflate it before
    // unpacking the CPIO (the Fig 5 "leave it uncompressed" lesson).
    if (request.initrd_codec != compress::CodecKind::kNone) {
        SEVF_ASSIGN_OR_RETURN(
            ByteVec packed,
            vm.memory().guestRead(layout::kInitrdPrivateGpa,
                                  staged_initrd.size(), true));
        SEVF_ASSIGN_OR_RETURN(
            ByteVec inflated,
            compress::codecFor(request.initrd_codec).decompress(packed));
        SEVF_RETURN_IF_ERROR(vm.memory().guestWrite(
            layout::kInitrdDecompressedGpa, inflated, true));
        tb.cpu(cost.decompressCost(request.initrd_codec, inflated.size()),
               kBootstrapLoader, "decompress_initrd");
    }
    return at;
}

/** QEMU/OVMF SEV (§2.5 state of the art, the Fig 3/9/10 baseline). */
Result<TemplatePoint>
coldQemuOvmf(Platform &platform, const LaunchRequest &request,
             TraceBuilder &tb, LaunchResult &result)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd = workload::cachedInitrd(request.scale);
    const ByteVec ovmf = firmware::ovmfImage(cost);

    // ---- QEMU side ----
    tb.cpu(cost.qemuProcessStart(), kVmm, "qemu_start");
    tb.cpu(cost.qemuSetup(), kVmm, "machine_setup");
    TemplatePoint at;
    at.vm = makeVm(platform, request, StrategyKind::kQemuOvmfSev);
    vmm::MicroVm &vm = *at.vm;

    SEVF_RETURN_IF_ERROR(vm.memory().hostWrite(firmware::kOvmfBaseGpa, ovmf));
    SEVF_RETURN_IF_ERROR(
        vm.stageMeasuredComponents(art.bzimage, initrd).status());
    ByteVec cmdline_z = toBytes(request.vm.cmdline);
    cmdline_z.push_back(0);
    SEVF_RETURN_IF_ERROR(
        vm.memory().hostWrite(layout::kCmdlineStagingGpa, cmdline_z));
    tb.cpu(cost.vmmLoad(ovmf.size() + art.bzimage.size() + initrd.size()),
           kVmm, "load_firmware_and_components");

    // QEMU hashes all three components in the VMM, on the critical path
    // (no out-of-band option upstream, §4.3).
    verifier::BootHashes hashes = verifier::BootHashes::compute(
        art.bzimage, initrd, asBytes(request.vm.cmdline));
    tb.cpu(cost.vmmHash(art.bzimage.size() + initrd.size() +
                        request.vm.cmdline.size()),
           kVmm, "hash_components_in_vmm");

    // Pre-encryption plan: the entire OVMF volume + the hash page.
    at.plan.push_back({"ovmf", firmware::kOvmfBaseGpa, ovmf});
    ByteVec hash_page = hashes.toPage();
    SEVF_RETURN_IF_ERROR(
        vm.memory().hostWrite(layout::kHashTableGpa, hash_page));
    at.plan.push_back(
        {"component_hashes", layout::kHashTableGpa, std::move(hash_page)});

    SEVF_ASSIGN_OR_RETURN(at.handle,
                          runLaunchFlow(platform, tb, vm.memory(), at.plan,
                                        request, result));
    // The QEMU flow issues extra session/VMSA commands (Fig 10's
    // 287.8 ms pre-encryption vs the raw 1 MiB cost).
    tb.psp(cost.qemuSessionPsp(), kPreEncryption, "sev_session_vmsa");

    // ---- OVMF (in-guest): full PI phase sequence first ----
    for (const firmware::UefiPhase &ph : firmware::uefiPhases(cost)) {
        tb.cpu(ph.duration, kFirmware, "ovmf_" + ph.name);
    }

    // ---- OVMF's measured-direct-boot verifier ----
    verifier::VerifierInputs inputs;
    inputs.kernel_staging = layout::kKernelStagingGpa;
    inputs.initrd_staging = layout::kInitrdStagingGpa;
    inputs.hash_table_gpa = layout::kHashTableGpa;
    inputs.kernel_private = layout::kBzImagePrivateGpa;
    inputs.initrd_private = layout::kInitrdPrivateGpa;
    inputs.page_table_root = layout::kPageTableGpa;
    inputs.kernel_kind = verifier::KernelImageKind::kBzImage;
    inputs.hugepages = request.vm.hugepages;
    inputs.cmdline_staging = layout::kCmdlineStagingGpa;
    inputs.cmdline_private = layout::kCmdlineGpa;
    inputs.keep_shared = {
        {layout::kKernelStagingGpa, art.bzimage.size()},
        {layout::kInitrdStagingGpa, initrd.size()},
        {layout::kCmdlineStagingGpa, kPageSize},
    };
    verifier::BootVerifier boot_verifier(vm.memory());
    SEVF_ASSIGN_OR_RETURN(verifier::VerifiedBoot boot,
                          boot_verifier.run(inputs));
    result.verifier_stats = boot.stats;
    // EDKII copy+hash runs slower than the SEVeriFast verifier.
    tb.cpu(cost.ovmfVerify(boot.stats.bytes_hashed), kBootVerification,
           "ovmf_verify_components");

    // ---- Bootstrap loader + kernel ----
    SEVF_ASSIGN_OR_RETURN(
        guest::LoadedKernel loaded,
        guest::runBootstrapLoader(vm.memory(), boot.kernel_gpa,
                                  boot.kernel_size, true));
    tb.cpu(cost.bootstrapFixed(), kBootstrapLoader, "bootstrap_entry");
    tb.cpu(cost.lz4Decompress(loaded.decompressed_bytes), kBootstrapLoader,
           "decompress_kernel");
    return at;
}

/** SEV direct boot (§3.2 strawman: pre-encrypt the kernel itself). */
Result<TemplatePoint>
coldSevDirectBoot(Platform &platform, const LaunchRequest &request,
                  TraceBuilder &tb, LaunchResult &result)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd_raw = workload::cachedInitrd(request.scale);
    const bool bzimage = request.kernel_codec != compress::CodecKind::kNone;

    ByteVec initrd_storage;
    ByteSpan initrd = initrd_raw;
    if (request.initrd_codec != compress::CodecKind::kNone) {
        initrd_storage =
            compress::codecFor(request.initrd_codec).compress(initrd_raw);
        initrd = initrd_storage;
    }

    tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
    tb.cpu(cost.kvmSnpInit(), kVmm, "kvm_snp_init");
    TemplatePoint at;
    at.vm = makeVm(platform, request, StrategyKind::kSevDirectBoot);
    vmm::MicroVm &vm = *at.vm;
    std::vector<attest::PreEncryptedRegion> &plan = at.plan;

    // Place components where they run, then pre-encrypt EVERYTHING:
    // kernel, initrd, structs - the §3.2 anti-pattern.
    u64 kernel_entry = 0;
    u64 staged_bytes = 0;
    if (bzimage) {
        SEVF_RETURN_IF_ERROR(
            vm.memory().hostWrite(layout::kBzImagePrivateGpa, art.bzimage));
        plan.push_back({"bzimage", layout::kBzImagePrivateGpa, art.bzimage});
        staged_bytes += art.bzimage.size();
    } else {
        SEVF_ASSIGN_OR_RETURN(image::ElfImage elf,
                              image::parseElf(art.vmlinux));
        kernel_entry = elf.entry;
        for (std::size_t i = 0; i < elf.segments.size(); ++i) {
            const image::ElfSegment &seg = elf.segments[i];
            SEVF_RETURN_IF_ERROR(vm.memory().hostWrite(seg.vaddr, seg.data));
            plan.push_back(
                {"kernel_seg" + std::to_string(i), seg.vaddr, seg.data});
            staged_bytes += seg.data.size();
        }
    }
    SEVF_RETURN_IF_ERROR(
        vm.memory().hostWrite(layout::kInitrdPrivateGpa, initrd));
    plan.push_back({"initrd", layout::kInitrdPrivateGpa,
                    ByteVec(initrd.begin(), initrd.end())});
    staged_bytes += initrd.size();

    SEVF_ASSIGN_OR_RETURN(vmm::BootStructs structs,
                          vm.stageBootStructs(layout::kInitrdPrivateGpa,
                                              initrd.size(), kernel_entry));
    for (const auto &[name, gpa, size] :
         {std::tuple<const char *, Gpa, u64>{"mptable", structs.mptable_gpa,
                                             structs.mptable_size},
          {"boot_params", structs.boot_params_gpa, structs.boot_params_size},
          {"cmdline", structs.cmdline_gpa, structs.cmdline_size}}) {
        SEVF_ASSIGN_OR_RETURN(ByteVec bytes, vm.memory().hostRead(gpa, size));
        plan.push_back({name, gpa, std::move(bytes)});
    }
    tb.cpu(cost.vmmLoad(staged_bytes), kVmm, "load_components");
    tb.cpu(cost.fcSetup(), kVmm, "vm_setup");

    SEVF_ASSIGN_OR_RETURN(at.handle, runLaunchFlow(platform, tb, vm.memory(),
                                                   plan, request, result));

    // ---- Guest: claim memory (SNP), maybe decompress, boot ----
    if (vm.memory().integrityEnforced()) {
        SEVF_RETURN_IF_ERROR(claimRemainingPages(vm.memory()));
        tb.cpu(cost.pvalidate(vm.memory().size(), request.vm.hugepages),
               kBootVerification, "pvalidate_sweep");
    }

    if (bzimage) {
        SEVF_ASSIGN_OR_RETURN(
            guest::LoadedKernel loaded,
            guest::runBootstrapLoader(vm.memory(), layout::kBzImagePrivateGpa,
                                      art.bzimage.size(), true));
        tb.cpu(cost.bootstrapFixed(), kBootstrapLoader, "bootstrap_entry");
        tb.cpu(cost.decompressCost(loaded.codec, loaded.decompressed_bytes),
               kBootstrapLoader, "decompress_kernel");
    }
    return at;
}

/** The kind's cold body, up to the template point. */
Result<TemplatePoint>
runColdBody(StrategyKind kind, Platform &platform,
            const LaunchRequest &request, TraceBuilder &tb,
            LaunchResult &result)
{
    switch (kind) {
      case StrategyKind::kStockFirecracker:
        return coldStockFirecracker(platform, request, tb, result);
      case StrategyKind::kQemuOvmfSev:
        return coldQemuOvmf(platform, request, tb, result);
      case StrategyKind::kSevDirectBoot:
        return coldSevDirectBoot(platform, request, tb, result);
      case StrategyKind::kSeveriFastBz:
        return coldSeveriFast(platform, request, tb, result,
                              /*bzimage=*/true);
      case StrategyKind::kSeveriFastVmlinux:
        return coldSeveriFast(platform, request, tb, result,
                              /*bzimage=*/false);
    }
    panic("unknown strategy kind");
}

// ===================================================================
// After the template point: shared by cold and warm launches.
// ===================================================================

/**
 * Guest tail: Linux boot (+init) and optional remote attestation,
 * charged with the right phases.
 */
Status
runGuestTail(Platform &platform, const LaunchRequest &request,
             const TemplatePoint &at, TraceBuilder &tb, LaunchResult &result,
             const std::optional<crypto::Sha256Digest> &expected)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelSpec &spec = workload::kernelSpec(request.kernel);
    memory::GuestMemory &mem = at.vm->memory();

    tb.cpu(cost.linuxBoot(spec.base_linux_boot, mem.sevMode()), kLinuxBoot,
           "linux_boot");
    tb.cpu(cost.initExec(), kLinuxBoot, "exec_init");

    if (!request.attest || !spec.has_network) {
        return Status::ok();
    }

    // The expected-measurement tool replays the data regions plus the
    // measured VMSAs for SEV-ES/SNP guests.
    std::optional<attest::VmsaInfo> vmsa;
    if (memory::hasEncryptedState(mem.sevMode())) {
        vmsa = attest::VmsaInfo{request.vm.vcpus, request.vm.sev_policy,
                                layout::kVmsaGpa};
    }
    ByteVec secret = ownerSecret(request.seed);
    attest::GuestOwner owner(
        platform.keyServer(),
        expected ? *expected : attest::expectedMeasurement(at.plan, vmsa),
        secret, request.seed ^ 0x0143);
    SEVF_ASSIGN_OR_RETURN(
        guest::AttestationOutcome outcome,
        guest::runAttestation(platform.psp(), at.handle, mem, kSecretGpa,
                              owner, request.seed ^ 0x9e57));
    tb.cpu(cost.attestGuest(), kAttestation, "guest_report_request");
    tb.psp(cost.pspReport(), kAttestation, "psp_report");
    tb.net(cost.attestNetwork(), kAttestation, "owner_round_trip");
    result.attested = true;
    result.provisioned_secret_bytes = outcome.secret_size;
    return Status::ok();
}

/**
 * The one finish step after the template point: the guest tail (unless
 * the cold body already charged it), the retained VM, the trace. Warm
 * launches pass the template measurement as @p expected (verified equal
 * to this launch's LAUNCH_MEASURE) instead of re-deriving it from the
 * plan.
 */
Status
finishLaunch(Platform &platform, const LaunchRequest &request,
             const TemplatePoint &at, TraceBuilder &tb, LaunchResult &result,
             const std::optional<crypto::Sha256Digest> &expected =
                 std::nullopt)
{
    if (!at.tail_in_steps) {
        SEVF_RETURN_IF_ERROR(
            runGuestTail(platform, request, at, tb, result, expected));
    }
    if (request.keep_vm) {
        result.vm = at.vm;
    }
    result.trace = tb.take();
    return Status::ok();
}

/**
 * Capture a launch template at the template point. nullptr when the
 * snapshot is refused (e.g. secret-labelled pages): refusing to cache
 * is always safe - this and future launches simply stay cold.
 */
std::shared_ptr<cache::LaunchTemplate>
captureTemplate(StrategyKind kind, const LaunchRequest &request,
                const TemplatePoint &at, const TraceBuilder &tb,
                const LaunchResult &result)
{
    SEVF_SPAN("cache.capture", "strategy", strategyName(kind));

    // The warm path regenerates the plan regions (premeasured launch
    // flow) and the VMSAs (live LAUNCH_UPDATE_VMSA) itself, so both are
    // excluded from the memory snapshot.
    memory::GuestMemory &mem = at.vm->memory();
    std::vector<memory::GpaRange> exclude;
    for (const attest::PreEncryptedRegion &r : at.plan) {
        exclude.push_back({alignDown(r.gpa, kPageSize),
                           alignUp(r.gpa + r.bytes.size(), kPageSize)});
    }
    if (memory::hasEncryptedState(mem.sevMode())) {
        exclude.push_back(
            {layout::kVmsaGpa,
             layout::kVmsaGpa + u64{request.vm.vcpus} * kPageSize});
    }
    Result<memory::MemorySnapshot> snap = mem.captureSnapshot(exclude);
    if (!snap.isOk()) {
        return nullptr;
    }

    auto t = std::make_shared<cache::LaunchTemplate>();
    for (const attest::PreEncryptedRegion &r : at.plan) {
        cache::TemplateRegion region;
        region.name = r.name;
        region.gpa = r.gpa;
        region.page_digests = crypto::pageContentDigests(r.bytes);
        region.plaintext = std::make_shared<const ByteVec>(r.bytes);
        t->plan.push_back(std::move(region));
    }
    t->snapshot = snap.take();
    t->steps = tb.trace().steps();
    t->tail_in_steps = at.tail_in_steps;
    t->measurement = result.measurement;
    t->pre_encrypted_bytes = result.pre_encrypted_bytes;
    t->verifier.pages_validated = result.verifier_stats.pages_validated;
    t->verifier.bytes_copied = result.verifier_stats.bytes_copied;
    t->verifier.bytes_hashed = result.verifier_stats.bytes_hashed;
    t->verifier.pagetable_bytes = result.verifier_stats.pagetable_bytes;
    return t;
}

/**
 * Cold launch: the kind's body, a template capture when @p capture is
 * set (this launch won the single-flight build), then the finish step.
 * The VM dies on return (unless kept), so launch() publishes the
 * template - possibly to the disk tier - with the guest memory freed.
 */
Status
runCold(StrategyKind kind, Platform &platform, const LaunchRequest &request,
        TraceBuilder &tb, LaunchResult &result,
        std::shared_ptr<cache::LaunchTemplate> *capture)
{
    SEVF_ASSIGN_OR_RETURN(TemplatePoint at,
                          runColdBody(kind, platform, request, tb, result));
    if (capture != nullptr) {
        *capture = captureTemplate(kind, request, at, tb, result);
    }
    return finishLaunch(platform, request, at, tb, result);
}

/** Warm launch from a cached template. */
Result<LaunchResult>
launchFromTemplate(StrategyKind kind, Platform &platform,
                   const LaunchRequest &request,
                   const cache::LaunchTemplate &t)
{
    SEVF_SPAN("launch_from_template", "strategy", strategyName(kind));
    LaunchResult result;
    result.strategy = kind;
    result.cache_hit = true;
    TraceBuilder tb(result.timeline);

    TemplatePoint at;
    at.vm = makeVm(platform, request, kind);
    at.tail_in_steps = t.tail_in_steps;
    memory::GuestMemory &mem = at.vm->memory();
    if (mem.size() != t.snapshot.memory_size) {
        return errInvalidState(
            "cached template does not match the VM memory size");
    }

    if (kind != StrategyKind::kStockFirecracker) {
        // The real PSP launch flow, but with the measurement chain
        // extended from the cached per-page digests instead of
        // re-hashing the plan: the plaintext is re-encrypted under THIS
        // VM's key (ciphertexts are per-VM; digests are not).
        SEVF_ASSIGN_OR_RETURN(
            at.handle,
            runPspLaunch(platform, request, mem, /*tb=*/nullptr, result,
                         [&](psp::GuestHandle handle) -> Status {
                             for (const cache::TemplateRegion &r : t.plan) {
                                 SEVF_RETURN_IF_ERROR(
                                     mem.hostWrite(r.gpa, *r.plaintext));
                                 SEVF_RETURN_IF_ERROR(
                                     platform.psp()
                                         .launchUpdateDataPremeasured(
                                             handle, mem, r.gpa,
                                             r.plaintext->size(),
                                             r.page_digests));
                             }
                             return Status::ok();
                         }));
        // End-to-end integrity gate for the whole cache (template_io.h):
        // any corruption of plaintext or digests lands here.
        if (result.measurement != t.measurement) {
            return errInvalidState(
                "cached template replays to a different launch "
                "measurement");
        }
    }

    // Guest-produced state (verifier outputs, private component copies,
    // page tables) arrives as copy-on-write views of the template;
    // pages are re-encrypted under this VM's key only when touched.
    SEVF_RETURN_IF_ERROR(mem.instantiateSnapshot(t.snapshot));

    // Re-charge the cold boot's virtual-time step prefix verbatim: the
    // cache saves host wall-clock, never simulated guest time.
    for (const sim::Step &s : t.steps) {
        tb.replay(s);
    }
    result.pre_encrypted_bytes = t.pre_encrypted_bytes;
    result.verifier_stats.pages_validated = t.verifier.pages_validated;
    result.verifier_stats.bytes_copied = t.verifier.bytes_copied;
    result.verifier_stats.bytes_hashed = t.verifier.bytes_hashed;
    result.verifier_stats.pagetable_bytes = t.verifier.pagetable_bytes;
    SEVF_RETURN_IF_ERROR(
        finishLaunch(platform, request, at, tb, result, t.measurement));

    if (obs::metricsEnabled()) {
        // Sampled here rather than inside GuestMemory: materialization
        // runs on TCB-reachable read paths, where the obs layer must
        // not be called (tools/tcb-baseline.json).
        static obs::Counter &materialized = obs::Registry::instance().counter(
            "sevf_cow_pages_materialized_total",
            "Copy-on-write template pages copied into DRAM on first touch "
            "during a warm launch");
        materialized.add(mem.cowMaterializedCount());
    }
    return result;
}

} // namespace

const char *
strategyName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::kStockFirecracker: return "stock-firecracker";
      case StrategyKind::kQemuOvmfSev: return "qemu-ovmf-sev";
      case StrategyKind::kSevDirectBoot: return "sev-direct-boot";
      case StrategyKind::kSeveriFastBz: return "severifast-bzimage";
      case StrategyKind::kSeveriFastVmlinux: return "severifast-vmlinux";
    }
    return "unknown";
}

sim::Duration
LaunchResult::bootTime() const
{
    return trace.total() - trace.phaseTotal(sim::phase::kAttestation);
}

namespace {

void
observeLaunchSim(const LaunchResult &result)
{
    if (!obs::metricsEnabled()) {
        return;
    }
    static obs::Histogram &sim_ns = obs::Registry::instance().histogram(
        "sevf_launch_sim_ns",
        "Total simulated launch duration (attestation included)",
        obs::defaultTimeBoundsNs());
    sim_ns.observe(static_cast<u64>(result.trace.total().ns()));
}

/** sevf_launch_total{strategy}: each kind's counter is looked up once,
 *  on its first launch with metrics enabled. */
void
countLaunch(StrategyKind kind)
{
    if (!obs::metricsEnabled()) {
        return;
    }
    auto lookup = [kind]() -> obs::Counter & {
        return obs::Registry::instance().counter(
            "sevf_launch_total", "Completed launch attempts",
            {{"strategy", strategyName(kind)}});
    };
    switch (kind) {
      case StrategyKind::kStockFirecracker: {
        static obs::Counter &stock = lookup();
        return stock.add();
      }
      case StrategyKind::kQemuOvmfSev: {
        static obs::Counter &qemu = lookup();
        return qemu.add();
      }
      case StrategyKind::kSevDirectBoot: {
        static obs::Counter &direct = lookup();
        return direct.add();
      }
      case StrategyKind::kSeveriFastBz: {
        static obs::Counter &bz = lookup();
        return bz.add();
      }
      case StrategyKind::kSeveriFastVmlinux: {
        static obs::Counter &vmlinux = lookup();
        return vmlinux.add();
      }
    }
}

} // namespace

cache::LaunchKey
buildLaunchKey(const Platform &platform, const LaunchRequest &request,
               StrategyKind kind)
{
    cache::LaunchKeyBuilder kb;
    kb.addString("strategy", strategyName(kind));
    kb.addString("kernel", workload::kernelSpec(request.kernel).name);
    kb.addDouble("scale", request.scale);
    kb.addU64("sev_mode", static_cast<u64>(request.sev_mode));
    kb.addU64("memory_size", request.vm.memory_size);
    kb.addU64("vcpus", request.vm.vcpus);
    kb.addString("cmdline", request.vm.cmdline);
    kb.addBool("hugepages", request.vm.hugepages);
    kb.addU64("sev_policy", request.vm.sev_policy);
    kb.addBool("out_of_band_hashing", request.out_of_band_hashing);
    kb.addU64("kernel_codec", static_cast<u64>(request.kernel_codec));
    kb.addU64("initrd_codec", static_cast<u64>(request.initrd_codec));
    kb.addU64("verifier_size", request.verifier_size);
    kb.addBool("share_platform_key", request.share_platform_key);

    // Workload images by content: any byte change anywhere in a kernel
    // or initrd produces a different key.
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    kb.addDigest("vmlinux", cache::cachedContentDigest(art.vmlinux));
    kb.addDigest("bzimage", cache::cachedContentDigest(art.bzimage));
    kb.addDigest("initrd", cache::cachedContentDigest(
                               workload::cachedInitrd(request.scale)));

    // The cached trace stores concrete step durations, so every cost
    // parameter is key material. The assert pins the struct layout:
    // adding a parameter must revisit this function.
    static_assert(sizeof(sim::CostParams) == 44 * sizeof(double),
                  "CostParams changed: update buildLaunchKey");
    const sim::CostParams &p = platform.cost().params();
    kb.addBytes("cost_params",
                ByteSpan(reinterpret_cast<const u8 *>(&p), sizeof(p)));
    return kb.build();
}

Status
validateLaunchRequest(const LaunchRequest &request)
{
    // Negated so NaN fails too.
    if (!(request.scale > 0.0 && request.scale <= 1.0)) {
        return errInvalidArgument("scale must be in (0, 1], got " +
                                  std::to_string(request.scale));
    }
    // The verifier lands at kVerifierGpa and must end below the page
    // tables the verifier itself builds.
    constexpr u64 kMaxVerifierSize =
        layout::kPageTableGpa - layout::kVerifierGpa;
    if (request.verifier_size != 0 &&
        (request.verifier_size < verifier::kMinVerifierBinarySize ||
         request.verifier_size > kMaxVerifierSize)) {
        return errInvalidArgument(
            "verifier_size must be 0 or in [" +
            std::to_string(verifier::kMinVerifierBinarySize) + ", " +
            std::to_string(kMaxVerifierSize) + "], got " +
            std::to_string(request.verifier_size));
    }
    return Status::ok();
}

Result<LaunchResult>
BootStrategy::launch(Platform &platform, const LaunchRequest &request) const
{
    SEVF_RETURN_IF_ERROR(validateLaunchRequest(request));
    unsigned threads = request.host_threads != 0 ? request.host_threads
                                                 : platform.hostThreads();
    // RAII: the previous knob value is restored when the launch
    // returns, so nested strategy invocations compose.
    base::ScopedHostThreads scope(threads);
    SEVF_SPAN("launch", "strategy", strategyName(kind_));
    countLaunch(kind_);

    // Template-cache dispatch. KASLR launches draw per-launch entropy
    // by design and always boot cold.
    std::optional<cache::LaunchKey> key;
    bool build_template = false;
    if (request.use_template_cache && !request.guest_kaslr) {
        key = buildLaunchKey(platform, request, kind_);
        cache::TemplateCache::Lookup hit =
            platform.templateCache().beginLookup(*key);
        if (hit.tmpl != nullptr) {
            Result<LaunchResult> warm =
                launchFromTemplate(kind_, platform, request, *hit.tmpl);
            if (warm.isOk()) {
                observeLaunchSim(*warm);
                return warm;
            }
            // The template failed to replay (stale or tampered entry,
            // or a transient fault that outlived the PSP retry
            // budget): treat it as poisoned — drop it and boot cold; a
            // later launch rebuilds. Never abort: the cold path
            // produces the authoritative measurement regardless.
            SEVF_SPAN("cache.poison_fallback", "strategy",
                      strategyName(kind_));
            warn("warm template replay failed (",
                 warm.status().toString(),
                 "); invalidating template and falling back to cold boot");
            platform.templateCache().invalidate(*key);
        } else {
            build_template = hit.claimed;
        }
    }

    LaunchResult result;
    result.strategy = kind_;
    TraceBuilder tb(result.timeline);
    std::shared_ptr<cache::LaunchTemplate> built;
    Status cold = runCold(kind_, platform, request, tb, result,
                          build_template ? &built : nullptr);
    if (build_template) {
        if (cold.isOk() && built != nullptr) {
            platform.templateCache().publish(*key, std::move(built));
        } else {
            platform.templateCache().abandon(*key);
        }
    }
    SEVF_RETURN_IF_ERROR(cold);
    observeLaunchSim(result);
    return result;
}

std::unique_ptr<BootStrategy>
makeStrategy(StrategyKind kind)
{
    return std::make_unique<BootStrategy>(kind);
}

} // namespace sevf::core
