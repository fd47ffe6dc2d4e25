#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>

#include "base/bytes.h"
#include "base/mutex.h"
#include "base/logging.h"
#include "base/rng.h"
#include "compress/codec.h"
#include "image/bzimage.h"
#include "image/cpio.h"
#include "image/elf.h"

namespace sevf::workload {

namespace {

/** Motifs standing in for repetitive machine code / tables. */
constexpr std::string_view kMotifs[] = {
    "\x55\x48\x89\xe5\x41\x57\x41\x56\x53\x48\x83\xec",
    "\x48\x8b\x05\x00\x00\x00\x00\x48\x85\xc0\x74",
    "mov rax, qword ptr [rip+0x0]; test rax, rax; jz ",
    "\x0f\x1f\x84\x00\x00\x00\x00\x00\x66\x90",
};

} // namespace

ByteVec
compressibleBytes(u64 size, double random_fraction, u64 seed)
{
    ByteVec out;
    out.reserve(size);
    Rng rng(seed);
    constexpr u64 kChunk = 1024;

    while (out.size() < size) {
        u64 take = std::min<u64>(kChunk, size - out.size());
        if (rng.nextDouble() < random_fraction) {
            std::size_t off = out.size();
            out.resize(off + take);
            rng.fill(MutByteSpan(out.data() + off, take));
        } else {
            std::string_view motif =
                kMotifs[rng.nextBelow(std::size(kMotifs))];
            u64 written = 0;
            while (written < take) {
                u64 n = std::min<u64>(motif.size(), take - written);
                out.insert(out.end(), motif.begin(), motif.begin() + n);
                written += n;
            }
            // One mutated byte per chunk keeps long-range matches from
            // being trivially infinite while staying very compressible.
            out[out.size() - 1 - rng.nextBelow(take)] =
                static_cast<u8>(rng.next());
        }
    }
    out.resize(size);
    return out;
}

namespace {

/**
 * Random fraction, in 1/1024ths, that puts each config's LZ4 bzImage
 * near its Fig 8 size: rows in KernelConfig order, column k for scale
 * 2^-k. Pinned from a bisection of the fraction over [0, 1] (10
 * halvings, so every candidate is a multiple of 1/1024) that stopped
 * once LZ4(vmlinux) came within 3% of the bzImage target less 32 KiB
 * of setup code. Valid only for the KernelSpec sizes and the seeds
 * below; workload_test's SizesNearPaperTargets catches a stale row.
 */
constexpr std::size_t kScaleColumns = 7; // scales 1, 1/2, ..., 1/64
constexpr u16 kRandomFraction1024[][kScaleColumns] = {
    {128, 128, 120, 119, 119, 112, 39},  // Lupine
    {148, 144, 144, 144, 130, 136, 102}, // AWS
    {240, 240, 224, 224, 224, 224, 221}, // Ubuntu
};

/** Column of the smallest grid scale >= @p scale (the last below it). */
std::size_t
scaleColumn(double scale)
{
    int exp = 0; // scale = mantissa * 2^exp, mantissa in [0.5, 1)
    const double mantissa = std::frexp(scale, &exp);
    const int k = mantissa == 0.5 ? 1 - exp : -exp;
    return std::min<std::size_t>(static_cast<std::size_t>(k),
                                 kScaleColumns - 1);
}

KernelArtifacts
buildKernelArtifacts(KernelConfig config, double scale)
{
    SEVF_CHECK(scale > 0.0 && scale <= 1.0);
    const KernelSpec &spec = kernelSpec(config);
    const u64 seed = 0x5ef0 + static_cast<u64>(config);
    const u64 vmlinux_target =
        alignUp(static_cast<u64>(static_cast<double>(spec.vmlinux_size) * scale),
                kPageSize);

    // The ELF file overhead (headers + padding) is small; aim the
    // segment payload at the vmlinux size minus a page of headers.
    const u64 payload = vmlinux_target - kPageSize;
    // Segment split approximating a kernel: text 62%, rodata 22%,
    // data 16% (+ BSS as memsz-only).
    const u64 text_size = payload * 62 / 100;
    const u64 rodata_size = payload * 22 / 100;
    const u64 data_size = payload - text_size - rodata_size;

    // One stream cut into segments, so the whole payload has the
    // pinned compressibility.
    const double frac =
        kRandomFraction1024[static_cast<std::size_t>(config)]
                           [scaleColumn(scale)] /
        1024.0;
    ByteVec blob = compressibleBytes(payload, frac, seed);

    image::ElfImage elf;
    elf.entry = 0x1000000 + 0x200; // conventional 16 MiB kernel base
    image::ElfSegment text;
    text.vaddr = 0x1000000;
    text.flags = image::kPfR | image::kPfX;
    text.data.assign(blob.begin(), blob.begin() + text_size);
    text.memsz = text_size;
    image::ElfSegment rodata;
    rodata.vaddr = alignUp(text.vaddr + text_size, kPageSize);
    rodata.flags = image::kPfR;
    rodata.data.assign(blob.begin() + text_size,
                       blob.begin() + text_size + rodata_size);
    rodata.memsz = rodata_size;
    image::ElfSegment data;
    data.vaddr = alignUp(rodata.vaddr + rodata_size, kPageSize);
    data.flags = image::kPfR | image::kPfW;
    data.data.assign(blob.begin() + text_size + rodata_size, blob.end());
    data.memsz = data_size + data_size / 2; // BSS tail
    elf.segments = {std::move(text), std::move(rodata), std::move(data)};

    KernelArtifacts art;
    art.spec = spec;
    art.scale = scale;
    art.entry = elf.entry;
    art.vmlinux = image::writeElf(elf);

    image::BzImageBuildConfig bz_cfg;
    bz_cfg.codec = compress::CodecKind::kLz4;
    art.bzimage = image::buildBzImage(art.vmlinux, bz_cfg);
    return art;
}

/** Memoized kernel artifacts keyed by (config, exact scale). */
struct KernelArtifactCache {
    base::Mutex mu;
    std::map<std::pair<int, double>, KernelArtifacts> entries
        SEVF_GUARDED_BY(mu);
};

KernelArtifactCache &
kernelArtifactCache()
{
    static KernelArtifactCache cache;
    return cache;
}

} // namespace

const KernelArtifacts &
cachedKernelArtifacts(KernelConfig config, double scale)
{
    KernelArtifactCache &cache = kernelArtifactCache();
    base::MutexLock lock(cache.mu);
    // Exact key: nearby scales build different artifacts, so they must
    // not share an entry.
    auto key = std::make_pair(static_cast<int>(config), scale);
    auto it = cache.entries.find(key);
    if (it == cache.entries.end()) {
        it = cache.entries.emplace(key, buildKernelArtifacts(config, scale))
                 .first;
    }
    return it->second;
}

ByteVec
syntheticInitrd(u64 uncompressed_size, u64 seed)
{
    std::vector<image::CpioEntry> entries;

    auto text_entry = [&](std::string name, std::string_view body) {
        image::CpioEntry e;
        e.name = std::move(name);
        e.mode = 0100755;
        e.data = toBytes(body);
        entries.push_back(std::move(e));
    };

    text_entry("init",
               "#!/bin/sh\n"
               "# Attestation-only initramfs (paper §2.4): request the\n"
               "# report, send it to the guest owner, receive secrets.\n"
               "/sbin/attest --report /dev/sev-guest \\\n"
               "  --owner https://guest-owner.example \\\n"
               "  && exec /sbin/real-init\n");
    text_entry("sbin/attest",
               "#!/bin/sh\n"
               "exec /bin/attest-tool \"$@\"\n");

    // Binary-ish members: a busybox-like tool, the sev-guest kernel
    // module, and a certificate bundle. Nominal sizes shrink
    // proportionally when the caller asks for a tiny (test-scale) initrd.
    double member_scale = 1.0;
    constexpr u64 kNominalMembers = (768 + 192 + 16) * kKiB;
    if (uncompressed_size < 2 * kNominalMembers) {
        member_scale = static_cast<double>(uncompressed_size) / 2.0 /
                       static_cast<double>(kNominalMembers);
    }
    auto scaled = [member_scale](u64 nominal) {
        return std::max<u64>(1024,
                             static_cast<u64>(static_cast<double>(nominal) *
                                              member_scale));
    };

    image::CpioEntry busybox;
    busybox.name = "bin/attest-tool";
    busybox.mode = 0100755;
    busybox.data = compressibleBytes(scaled(768 * kKiB), 0.35, seed ^ 0xb5b0);
    entries.push_back(std::move(busybox));

    image::CpioEntry module;
    module.name = "lib/modules/sev-guest.ko";
    module.mode = 0100644;
    module.data = compressibleBytes(scaled(192 * kKiB), 0.45, seed ^ 0x5e9);
    entries.push_back(std::move(module));

    image::CpioEntry certs;
    certs.name = "etc/certs/ark-ask.pem";
    certs.mode = 0100644;
    certs.data = compressibleBytes(scaled(16 * kKiB), 0.8, seed ^ 0xce57);
    entries.push_back(std::move(certs));

    // Filler to the target size. Mostly incompressible: the real
    // attestation initrd only shrinks 14 MiB -> ~12 MiB under LZ4.
    ByteVec probe = image::writeCpio(entries);
    if (uncompressed_size > probe.size() + 1024) {
        image::CpioEntry filler;
        filler.name = "usr/share/attest/runtime.img";
        filler.mode = 0100644;
        filler.data = compressibleBytes(
            uncompressed_size - probe.size() - 256, 0.82, seed ^ 0xf111);
        entries.push_back(std::move(filler));
    }
    return image::writeCpio(entries);
}

namespace {

/** Memoized synthetic initrds keyed by exact scale. */
struct InitrdCache {
    base::Mutex mu;
    std::map<double, ByteVec> entries SEVF_GUARDED_BY(mu);
};

InitrdCache &
initrdCache()
{
    static InitrdCache cache;
    return cache;
}

} // namespace

const ByteVec &
cachedInitrd(double scale)
{
    InitrdCache &cache = initrdCache();
    base::MutexLock lock(cache.mu);
    auto it = cache.entries.find(scale);
    if (it == cache.entries.end()) {
        u64 size = static_cast<u64>(
            static_cast<double>(kInitrdUncompressedSize) * scale);
        it = cache.entries.emplace(scale, syntheticInitrd(size, 0x1217d))
                 .first;
    }
    return it->second;
}

ByteVec
firmwareBlob(u64 size, u64 seed)
{
    // Firmware volumes are dense code: moderately compressible, but the
    // QEMU path never compresses them - it pre-encrypts the whole blob.
    ByteVec blob = compressibleBytes(size, 0.5, seed);
    // A recognizable volume header, because the PSP measures real bytes.
    const char header[] = "_FVH-OVMF-SEVF-SIM";
    std::copy(std::begin(header), std::end(header), blob.begin());
    return blob;
}

} // namespace sevf::workload
