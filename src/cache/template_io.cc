#include "cache/template_io.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "base/bytes.h"
#include "base/trust_zones.h"

namespace sevf::cache {

namespace {

/** Magic doubles as the format version; bump the digit on change. */
constexpr std::string_view kMagic = "SEVFTMP2";

/** Whole-file integrity trailer: SHA-256 of everything before it. */
constexpr u64 kTrailerSize = 32;

/**
 * Smallest encoding of one element of each counted list: the empty
 * strings/byte runs still carry their length prefixes.
 */
constexpr u64 kMinRegionSize = 4 + 8 + 8 + 4; // name, gpa, bytes, count
constexpr u64 kMinSegmentSize = 8 + 1 + 8;    // gpa, encrypted, bytes
constexpr u64 kRangeSize = 8 + 8;             // begin, end
constexpr u64 kMinStepSize = 1 + 8 + 3 * 4;   // kind, ns, three strings

/**
 * True when @p count elements of at least @p min_size bytes each fit in
 * what is left of the body. The counts come from the file, and the
 * trailer is a checksum, not a MAC: a count must be bounded before it
 * sizes a reserve().
 */
bool
countFits(const ByteReader &r, u32 count, u64 min_size)
{
    return static_cast<u64>(count) * min_size <= r.remaining();
}

void
writeString32(ByteWriter &w, std::string_view s)
{
    w.u32le(static_cast<u32>(s.size()));
    w.str(s);
}

Result<std::string>
readString32(ByteReader &r)
{
    SEVF_ASSIGN_OR_RETURN(u32 len, r.u32le());
    SEVF_ASSIGN_OR_RETURN(ByteSpan view, r.view(len));
    return std::string(reinterpret_cast<const char *>(view.data()),
                       view.size());
}

void
writeDigest(ByteWriter &w, const crypto::Sha256Digest &d)
{
    w.bytes(ByteSpan(d.data(), d.size()));
}

Result<crypto::Sha256Digest>
readDigest(ByteReader &r)
{
    SEVF_ASSIGN_OR_RETURN(ByteSpan view, r.view(32));
    crypto::Sha256Digest d;
    std::copy(view.begin(), view.end(), d.begin());
    return d;
}

void
writeBytes64(ByteWriter &w, const ByteVec &v)
{
    w.u64le(v.size());
    w.bytes(v);
}

Result<ByteVec>
readBytes64(ByteReader &r)
{
    SEVF_ASSIGN_OR_RETURN(u64 len, r.u64le());
    return r.bytes(len);
}

} // namespace

ByteVec
serializeTemplate(const LaunchTemplate &tmpl)
{
    ByteWriter w;
    w.str(kMagic);
    writeDigest(w, tmpl.measurement);
    w.u64le(tmpl.pre_encrypted_bytes);
    w.u8le(tmpl.tail_in_steps ? 1 : 0);
    w.u64le(tmpl.verifier.pages_validated);
    w.u64le(tmpl.verifier.bytes_copied);
    w.u64le(tmpl.verifier.bytes_hashed);
    w.u64le(tmpl.verifier.pagetable_bytes);

    w.u32le(static_cast<u32>(tmpl.plan.size()));
    for (const TemplateRegion &region : tmpl.plan) {
        writeString32(w, region.name);
        w.u64le(region.gpa);
        writeBytes64(w, region.plaintext ? *region.plaintext : ByteVec{});
        w.u32le(static_cast<u32>(region.page_digests.size()));
        for (const crypto::Sha256Digest &d : region.page_digests) {
            writeDigest(w, d);
        }
    }

    w.u64le(tmpl.snapshot.memory_size);
    w.u32le(static_cast<u32>(tmpl.snapshot.segments.size()));
    for (const memory::SnapshotSegment &seg : tmpl.snapshot.segments) {
        w.u64le(seg.gpa);
        w.u8le(seg.encrypted ? 1 : 0);
        writeBytes64(w, seg.bytes ? *seg.bytes : ByteVec{});
    }
    w.u32le(static_cast<u32>(tmpl.snapshot.validated.size()));
    for (const memory::GpaRange &range : tmpl.snapshot.validated) {
        w.u64le(range.begin);
        w.u64le(range.end);
    }

    w.u32le(static_cast<u32>(tmpl.steps.size()));
    for (const sim::Step &step : tmpl.steps) {
        w.u8le(static_cast<u8>(step.kind));
        w.u64le(static_cast<u64>(step.duration.ns()));
        writeString32(w, step.phase);
        writeString32(w, step.label);
        writeString32(w, step.annotation);
    }

    // Integrity trailer: digest of the whole body, so ANY corruption of
    // a stored file — including snapshot bytes the launch measurement
    // does not cover — fails the load and degrades to a cold boot.
    ByteVec encoded = w.take();
    crypto::Sha256Digest file_digest = crypto::Sha256::digest(encoded);
    encoded.insert(encoded.end(), file_digest.begin(), file_digest.end());
    return encoded;
}

Result<LaunchTemplate>
deserializeTemplate(ByteSpan data) SEVF_UNTRUSTED_INPUT
{
    if (data.size() < kMagic.size() + kTrailerSize) {
        return errCorrupted("template file: truncated");
    }
    ByteSpan body = data.subspan(0, data.size() - kTrailerSize);
    ByteSpan trailer = data.subspan(data.size() - kTrailerSize);
    crypto::Sha256Digest want_digest = crypto::Sha256::digest(body);
    if (!std::equal(trailer.begin(), trailer.end(), want_digest.begin(),
                    want_digest.end())) {
        return errCorrupted("template file: integrity trailer mismatch");
    }

    ByteReader r(body);
    SEVF_ASSIGN_OR_RETURN(ByteSpan magic, r.view(kMagic.size()));
    ByteSpan want = asBytes(kMagic);
    if (!std::equal(magic.begin(), magic.end(), want.begin(), want.end())) {
        return errCorrupted("template file: bad magic/version");
    }

    LaunchTemplate tmpl;
    SEVF_ASSIGN_OR_RETURN(tmpl.measurement, readDigest(r));
    SEVF_ASSIGN_OR_RETURN(tmpl.pre_encrypted_bytes, r.u64le());
    SEVF_ASSIGN_OR_RETURN(u8 tail, r.u8le());
    tmpl.tail_in_steps = tail != 0;
    SEVF_ASSIGN_OR_RETURN(tmpl.verifier.pages_validated, r.u64le());
    SEVF_ASSIGN_OR_RETURN(tmpl.verifier.bytes_copied, r.u64le());
    SEVF_ASSIGN_OR_RETURN(tmpl.verifier.bytes_hashed, r.u64le());
    SEVF_ASSIGN_OR_RETURN(tmpl.verifier.pagetable_bytes, r.u64le());

    SEVF_ASSIGN_OR_RETURN(u32 plan_count, r.u32le());
    if (!countFits(r, plan_count, kMinRegionSize)) {
        return errCorrupted("template file: plan count past end");
    }
    tmpl.plan.reserve(plan_count);
    for (u32 i = 0; i < plan_count; ++i) {
        TemplateRegion region;
        SEVF_ASSIGN_OR_RETURN(region.name, readString32(r));
        SEVF_ASSIGN_OR_RETURN(region.gpa, r.u64le());
        SEVF_ASSIGN_OR_RETURN(ByteVec plaintext, readBytes64(r));
        region.plaintext =
            std::make_shared<const ByteVec>(std::move(plaintext));
        SEVF_ASSIGN_OR_RETURN(u32 digests, r.u32le());
        if (!countFits(r, digests, 32)) {
            return errCorrupted("template file: digest count past end");
        }
        region.page_digests.reserve(digests);
        for (u32 d = 0; d < digests; ++d) {
            SEVF_ASSIGN_OR_RETURN(crypto::Sha256Digest digest, readDigest(r));
            region.page_digests.push_back(digest);
        }
        tmpl.plan.push_back(std::move(region));
    }

    SEVF_ASSIGN_OR_RETURN(tmpl.snapshot.memory_size, r.u64le());
    SEVF_ASSIGN_OR_RETURN(u32 seg_count, r.u32le());
    if (!countFits(r, seg_count, kMinSegmentSize)) {
        return errCorrupted("template file: segment count past end");
    }
    tmpl.snapshot.segments.reserve(seg_count);
    for (u32 i = 0; i < seg_count; ++i) {
        memory::SnapshotSegment seg;
        SEVF_ASSIGN_OR_RETURN(seg.gpa, r.u64le());
        SEVF_ASSIGN_OR_RETURN(u8 enc, r.u8le());
        seg.encrypted = enc != 0;
        SEVF_ASSIGN_OR_RETURN(ByteVec bytes, readBytes64(r));
        seg.bytes = std::make_shared<const ByteVec>(std::move(bytes));
        tmpl.snapshot.segments.push_back(std::move(seg));
    }
    SEVF_ASSIGN_OR_RETURN(u32 range_count, r.u32le());
    if (!countFits(r, range_count, kRangeSize)) {
        return errCorrupted("template file: range count past end");
    }
    tmpl.snapshot.validated.reserve(range_count);
    for (u32 i = 0; i < range_count; ++i) {
        memory::GpaRange range;
        SEVF_ASSIGN_OR_RETURN(range.begin, r.u64le());
        SEVF_ASSIGN_OR_RETURN(range.end, r.u64le());
        tmpl.snapshot.validated.push_back(range);
    }

    SEVF_ASSIGN_OR_RETURN(u32 step_count, r.u32le());
    if (!countFits(r, step_count, kMinStepSize)) {
        return errCorrupted("template file: step count past end");
    }
    tmpl.steps.reserve(step_count);
    for (u32 i = 0; i < step_count; ++i) {
        sim::Step step;
        SEVF_ASSIGN_OR_RETURN(u8 kind, r.u8le());
        if (kind > static_cast<u8>(sim::StepKind::kNet)) {
            return errCorrupted("template file: unknown step kind");
        }
        step.kind = static_cast<sim::StepKind>(kind);
        SEVF_ASSIGN_OR_RETURN(u64 ns, r.u64le());
        step.duration = sim::Duration(static_cast<i64>(ns));
        SEVF_ASSIGN_OR_RETURN(step.phase, readString32(r));
        SEVF_ASSIGN_OR_RETURN(step.label, readString32(r));
        SEVF_ASSIGN_OR_RETURN(step.annotation, readString32(r));
        tmpl.steps.push_back(std::move(step));
    }
    if (!r.atEnd()) {
        return errCorrupted("template file: trailing bytes");
    }
    return tmpl;
}

Status
saveTemplateFile(const std::string &path, const LaunchTemplate &tmpl)
{
    ByteVec encoded = serializeTemplate(tmpl);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
        return errInvalidArgument("cannot open template file for writing: " +
                                  path);
    }
    out.write(reinterpret_cast<const char *>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
    out.close();
    if (!out.good()) {
        return errInvalidState("short write to template file: " + path);
    }
    return Status::ok();
}

Result<std::shared_ptr<const LaunchTemplate>>
loadTemplateFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.is_open()) {
        return errNotFound("no template file: " + path);
    }
    std::streamsize size = in.tellg();
    if (size < 0) {
        return errCorrupted("unreadable template file: " + path);
    }
    ByteVec data(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(data.data()), size);
    if (!in.good() && size != 0) {
        return errCorrupted("short read from template file: " + path);
    }
    SEVF_ASSIGN_OR_RETURN(LaunchTemplate tmpl, deserializeTemplate(data));
    return std::make_shared<const LaunchTemplate>(std::move(tmpl));
}

} // namespace sevf::cache
