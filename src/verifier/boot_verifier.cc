#include "verifier/boot_verifier.h"

#include "base/bytes.h"
#include "base/trust_zones.h"
#include "image/elf.h"
#include "memory/page_table.h"

namespace sevf::verifier {

namespace {

constexpr u64 kCopyChunk = 256 * kKiB;

bool
inRanges(Gpa page, const std::vector<std::pair<Gpa, u64>> &ranges)
{
    for (const auto &[base, len] : ranges) {
        if (page >= alignDown(base, kPageSize) && page < base + len) {
            return true;
        }
    }
    return false;
}

} // namespace

Result<crypto::Sha256Digest>
vmlinuxStreamDigest(ByteSpan vmlinux)
{
    Result<image::ElfLayout> layout = image::parseElfHeader(vmlinux);
    if (!layout.isOk()) {
        return layout.status();
    }
    crypto::Sha256 hash;
    hash.update(vmlinux.first(image::kEhdrSize));
    u64 phdr_bytes = static_cast<u64>(layout->phnum) * image::kPhdrSize;
    if (layout->phoff + phdr_bytes > vmlinux.size()) {
        return errCorrupted("vmlinux: phdr table past end");
    }
    hash.update(vmlinux.subspan(layout->phoff, phdr_bytes));
    for (u16 i = 0; i < layout->phnum; ++i) {
        Result<image::ElfPhdr> p = image::parseElfPhdr(
            vmlinux.subspan(layout->phoff + i * image::kPhdrSize));
        if (!p.isOk()) {
            return p.status();
        }
        if (p->type != image::kPtLoad) {
            continue;
        }
        if (p->offset + p->filesz > vmlinux.size()) {
            return errCorrupted("vmlinux: segment past end");
        }
        hash.update(vmlinux.subspan(p->offset, p->filesz));
    }
    return hash.finalize();
}

Result<u64>
BootVerifier::validateMemory(const VerifierInputs &inputs)
{
    if (!mem_.integrityEnforced()) {
        // Base SEV / SEV-ES have no RMP: nothing to pvalidate.
        return u64{0};
    }
    const u32 asid = mem_.asid();
    u64 validated = 0;
    for (Gpa page = 0; page < mem_.size(); page += kPageSize) {
        if (inRanges(page, inputs.keep_shared)) {
            continue;
        }
        // Pre-encrypted launch pages arrive assigned+validated; touching
        // them with pvalidate again would be a (detectable) double
        // validation, so skip them like the real verifier does.
        if (mem_.rmp().entryAt(mem_.spaOf(page)).validated) {
            continue;
        }
        SEVF_RETURN_IF_ERROR(
            mem_.rmp().rmpUpdate(mem_.spaOf(page), asid, page, true));
        SEVF_RETURN_IF_ERROR(
            mem_.rmp().pvalidate(mem_.spaOf(page), asid, page, true));
        ++validated;
    }
    return validated;
}

Status
BootVerifier::copyAndHash(Gpa staging, Gpa dest, u64 len,
                          crypto::Sha256 &hash, VerifierStats &stats)
{
    // Single fetch: each shared chunk is read once into the bounce
    // buffer, and that copy is both hashed and encrypted. A host that
    // rewrites the staging pages meanwhile changes neither.
    bounce_.resize(kCopyChunk);
    for (u64 off = 0; off < len; off += kCopyChunk) {
        MutByteSpan chunk(bounce_.data(), std::min(kCopyChunk, len - off));
        SEVF_RETURN_IF_ERROR(mem_.guestReadInto(staging + off, chunk, false));
        hash.update(chunk);
        SEVF_RETURN_IF_ERROR(mem_.guestWrite(dest + off, chunk, true));
        stats.bytes_copied += chunk.size();
        stats.bytes_hashed += chunk.size();
    }
    return Status::ok();
}

Result<crypto::Sha256Digest>
BootVerifier::protectAndHash(Gpa staging, Gpa dest, u64 len,
                             VerifierStats &stats)
{
    crypto::Sha256 hash;
    SEVF_RETURN_IF_ERROR(copyAndHash(staging, dest, len, hash, stats));
    return hash.finalize();
}

Result<u64>
BootVerifier::streamVmlinux(const VerifierInputs &inputs,
                            const BootHashes &hashes, VerifierStats &stats)
{
    const Gpa staging = inputs.kernel_staging;
    crypto::Sha256 hash;

    // 1. ELF header -> private scratch; parse from the protected copy.
    Result<ByteVec> ehdr = mem_.guestRead(staging, image::kEhdrSize, false);
    if (!ehdr.isOk()) {
        return ehdr.status();
    }
    hash.update(*ehdr);
    SEVF_RETURN_IF_ERROR(mem_.guestWrite(inputs.kernel_private, *ehdr, true));
    stats.bytes_copied += ehdr->size();
    stats.bytes_hashed += ehdr->size();
    Result<image::ElfLayout> layout = image::parseElfHeader(*ehdr);
    if (!layout.isOk()) {
        return layout.status();
    }

    // 2. Program header table.
    u64 phdr_bytes = static_cast<u64>(layout->phnum) * image::kPhdrSize;
    Result<ByteVec> phdrs =
        mem_.guestRead(staging + layout->phoff, phdr_bytes, false);
    if (!phdrs.isOk()) {
        return phdrs.status();
    }
    hash.update(*phdrs);
    SEVF_RETURN_IF_ERROR(mem_.guestWrite(
        inputs.kernel_private + image::kEhdrSize, *phdrs, true));
    stats.bytes_copied += phdr_bytes;
    stats.bytes_hashed += phdr_bytes;

    // 3. Each PT_LOAD straight to its run address (no whole-file copy).
    for (u16 i = 0; i < layout->phnum; ++i) {
        Result<image::ElfPhdr> p = image::parseElfPhdr(
            ByteSpan(*phdrs).subspan(i * image::kPhdrSize));
        if (!p.isOk()) {
            return p.status();
        }
        if (p->type != image::kPtLoad) {
            continue;
        }
        SEVF_RETURN_IF_ERROR(copyAndHash(staging + p->offset, p->vaddr,
                                         p->filesz, hash, stats));
        // Zero the BSS tail in protected memory.
        for (u64 off = p->filesz; off < p->memsz;
             off += zeroBlock().size()) {
            u64 n = std::min<u64>(zeroBlock().size(), p->memsz - off);
            SEVF_RETURN_IF_ERROR(mem_.guestWrite(
                p->vaddr + off, zeroBlock().first(n), true));
            stats.bytes_copied += n;
        }
    }

    crypto::Sha256Digest got = hash.finalize();
    if (!digestEqual(ByteSpan(got.data(), got.size()),
                     ByteSpan(hashes.kernel.data(), hashes.kernel.size()))) {
        return errIntegrity("vmlinux stream hash mismatch");
    }
    return layout->entry;
}

Result<VerifiedBoot>
BootVerifier::run(const VerifierInputs &inputs) SEVF_TCB
{
    VerifiedBoot out;

    // 1. Claim and validate guest memory (C-bit world setup).
    Result<u64> validated = validateMemory(inputs);
    if (!validated.isOk()) {
        return validated.status();
    }
    out.stats.pages_validated = *validated;

    // 2. Generate identity page tables with the C-bit in private memory
    //    (the generate-not-pre-encrypt decision of Fig 7).
    memory::PageTableConfig pt_cfg;
    pt_cfg.root_gpa = inputs.page_table_root;
    pt_cfg.map_bytes = mem_.size();
    pt_cfg.set_c_bit = mem_.sevEnabled();
    Result<ByteVec> tables = memory::buildIdentityTables(pt_cfg);
    if (!tables.isOk()) {
        return tables.status();
    }
    SEVF_RETURN_IF_ERROR(
        mem_.guestWrite(inputs.page_table_root, *tables, true));
    out.stats.pagetable_bytes = tables->size();

    // 3. Read the pre-encrypted hash table. If the host skipped its
    //    LAUNCH_UPDATE, this access faults (#VC) - there is no
    //    unverified path forward.
    Result<ByteVec> hash_page =
        mem_.guestRead(inputs.hash_table_gpa, kPageSize, true);
    if (!hash_page.isOk()) {
        return hash_page.status();
    }
    Result<BootHashes> hashes = BootHashes::fromPage(*hash_page);
    if (!hashes.isOk()) {
        return hashes.status();
    }
    out.hashes = *hashes;

    // 4. Protect + verify the kernel. Sizes come from the measured hash
    //    table, never from host-controlled state.
    if (inputs.kernel_kind == KernelImageKind::kBzImage) {
        Result<crypto::Sha256Digest> got = protectAndHash(
            inputs.kernel_staging, inputs.kernel_private,
            hashes->kernel_size, out.stats);
        if (!got.isOk()) {
            return got.status();
        }
        if (!digestEqual(ByteSpan(got->data(), got->size()),
                         ByteSpan(hashes->kernel.data(),
                                  hashes->kernel.size()))) {
            return errIntegrity("kernel (bzImage) hash mismatch");
        }
        out.kernel_gpa = inputs.kernel_private;
        out.kernel_size = hashes->kernel_size;
    } else {
        Result<u64> entry = streamVmlinux(inputs, *hashes, out.stats);
        if (!entry.isOk()) {
            return entry.status();
        }
        out.kernel_entry = *entry;
        out.kernel_size = hashes->kernel_size;
    }

    // 5. Protect + verify the initrd.
    Result<crypto::Sha256Digest> initrd_got = protectAndHash(
        inputs.initrd_staging, inputs.initrd_private, hashes->initrd_size,
        out.stats);
    if (!initrd_got.isOk()) {
        return initrd_got.status();
    }
    if (!digestEqual(
            ByteSpan(initrd_got->data(), initrd_got->size()),
            ByteSpan(hashes->initrd.data(), hashes->initrd.size()))) {
        return errIntegrity("initrd hash mismatch");
    }
    out.initrd_gpa = inputs.initrd_private;
    out.initrd_size = hashes->initrd_size;

    // 6. QEMU-style measured cmdline (SEVeriFast pre-encrypts it
    //    instead; see Fig 7).
    if (hashes->cmdline && inputs.cmdline_staging != 0) {
        // The cmdline has no size field of its own in the hash table;
        // a NUL-terminated copy up to a page is verified.
        Result<ByteVec> raw =
            mem_.guestRead(inputs.cmdline_staging, kPageSize, false);
        if (!raw.isOk()) {
            return raw.status();
        }
        std::size_t len = 0;
        while (len < raw->size() && (*raw)[len] != 0) {
            ++len;
        }
        crypto::Sha256Digest got =
            crypto::Sha256::digest(ByteSpan(raw->data(), len));
        if (!digestEqual(ByteSpan(got.data(), got.size()),
                         ByteSpan(hashes->cmdline->data(),
                                  hashes->cmdline->size()))) {
            return errIntegrity("cmdline hash mismatch");
        }
        SEVF_RETURN_IF_ERROR(mem_.guestWrite(
            inputs.cmdline_private, ByteSpan(raw->data(), len + 1), true));
        out.stats.bytes_copied += len;
        out.stats.bytes_hashed += len;
    }

    return out;
}

} // namespace sevf::verifier
