/**
 * @file
 * Launch-template cache tests: key derivation, LRU-by-bytes eviction,
 * single-flight build dedup, disk persistence, copy-on-write
 * instantiation, template capture against a reference built from the
 * raw guest image, and the core invariant - a cache hit is
 * bit-identical to the cold boot it replaces.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "base/bytes.h"
#include "base/rng.h"
#include "cache/launch_key.h"
#include "cache/template_cache.h"
#include "cache/template_io.h"
#include "core/launch.h"
#include "crypto/sha256.h"
#include "crypto/xex.h"
#include "memory/guest_memory.h"
#include "vmm/microvm.h"
#include "workload/synthetic.h"

namespace sevf {
namespace {

constexpr double kScale = 1.0 / 32.0;

core::LaunchRequest
smallRequest()
{
    core::LaunchRequest req;
    req.kernel = workload::KernelConfig::kAws;
    req.scale = kScale;
    req.attest = false;
    return req;
}

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
    EXPECT_EQ(a.total().ns(), b.total().ns());
}

// ===================================================================
// LaunchKey derivation
// ===================================================================

class LaunchKeyTest : public ::testing::Test
{
  protected:
    LaunchKeyTest() : platform_(sim::CostParams::deterministic()) {}

    cache::LaunchKey keyFor(const core::LaunchRequest &req,
                            core::StrategyKind kind =
                                core::StrategyKind::kSeveriFastBz)
    {
        return core::buildLaunchKey(platform_, req, kind);
    }

    core::Platform platform_;
};

TEST_F(LaunchKeyTest, DeterministicAndExcludesPerLaunchKnobs)
{
    core::LaunchRequest req = smallRequest();
    cache::LaunchKey base = keyFor(req);
    EXPECT_EQ(base, keyFor(req));

    // Per-launch knobs are deliberately not key material (launch.h).
    core::LaunchRequest varied = req;
    varied.seed = 999;
    varied.attest = !req.attest;
    varied.keep_vm = true;
    varied.host_threads = 7;
    EXPECT_EQ(base, keyFor(varied));
}

TEST_F(LaunchKeyTest, EveryTemplateInputChangesTheKey)
{
    core::LaunchRequest req = smallRequest();
    cache::LaunchKey base = keyFor(req);

    {
        core::LaunchRequest r = req;
        r.vm.cmdline += " quiet";
        EXPECT_NE(base, keyFor(r)) << "cmdline";
    }
    {
        core::LaunchRequest r = req;
        r.sev_mode = memory::SevMode::kSevEs;
        EXPECT_NE(base, keyFor(r)) << "sev_mode";
    }
    {
        core::LaunchRequest r = req;
        r.scale = kScale / 2; // different kernel artifact contents
        EXPECT_NE(base, keyFor(r)) << "scale";
    }
    {
        core::LaunchRequest r = req;
        r.kernel_codec = compress::CodecKind::kNone;
        EXPECT_NE(base, keyFor(r)) << "kernel_codec";
    }
    {
        core::LaunchRequest r = req;
        r.vm.memory_size *= 2;
        EXPECT_NE(base, keyFor(r)) << "memory_size";
    }
    {
        core::LaunchRequest r = req;
        r.out_of_band_hashing = !req.out_of_band_hashing;
        EXPECT_NE(base, keyFor(r)) << "out_of_band_hashing";
    }
    EXPECT_NE(base, keyFor(req, core::StrategyKind::kSevDirectBoot))
        << "strategy";
}

TEST_F(LaunchKeyTest, CostParamsAreKeyMaterial)
{
    // The cached trace stores concrete durations, so two platforms with
    // different cost models must never share templates.
    core::Platform jittered; // default params != deterministic()
    core::LaunchRequest req = smallRequest();
    EXPECT_NE(keyFor(req),
              core::buildLaunchKey(jittered, req,
                                   core::StrategyKind::kSeveriFastBz));
}

TEST(LaunchKeyBuilderTest, DomainSeparationAndHex)
{
    cache::LaunchKeyBuilder a;
    a.addString("a", "bc");
    cache::LaunchKeyBuilder b;
    b.addString("ab", "c");
    EXPECT_NE(a.build(), b.build())
        << "field/payload concatenation must not collide";

    cache::LaunchKeyBuilder c;
    c.addString("a", "bc");
    std::string hex = c.build().hex();
    EXPECT_EQ(hex.size(), 64u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// ===================================================================
// TemplateCache mechanics (no launches; synthetic templates)
// ===================================================================

cache::LaunchKey
syntheticKey(u64 n)
{
    cache::LaunchKeyBuilder kb;
    kb.addU64("test_key", n);
    return kb.build();
}

std::shared_ptr<const cache::LaunchTemplate>
syntheticTemplate(u64 payload_bytes)
{
    auto t = std::make_shared<cache::LaunchTemplate>();
    cache::TemplateRegion region;
    region.name = "payload";
    region.plaintext =
        std::make_shared<const ByteVec>(payload_bytes, u8{0xab});
    region.page_digests.resize((payload_bytes + kPageSize - 1) / kPageSize);
    t->plan.push_back(std::move(region));
    return t;
}

TEST(TemplateCacheTest, LruEvictionByBytes)
{
    cache::TemplateCache cache;
    auto tmpl = syntheticTemplate(64 * 1024);
    u64 size = tmpl->byteSize();
    ASSERT_GT(size, 0u);
    cache.setCapacityBytes(2 * size + size / 2); // holds exactly two

    cache.publish(syntheticKey(1), tmpl);
    cache.publish(syntheticKey(2), syntheticTemplate(64 * 1024));
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Touch 1 so 2 becomes least-recently-used, then overflow.
    EXPECT_NE(cache.find(syntheticKey(1)), nullptr);
    cache.publish(syntheticKey(3), syntheticTemplate(64 * 1024));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_NE(cache.find(syntheticKey(1)), nullptr);
    EXPECT_EQ(cache.find(syntheticKey(2)), nullptr) << "LRU victim";
    EXPECT_NE(cache.find(syntheticKey(3)), nullptr);
    EXPECT_LE(cache.stats().bytes, cache.capacityBytes());
}

TEST(TemplateCacheTest, EvictionOrderSurvivesShardRewrite)
{
    // Freeze exact LRU semantics across the intrusive-list rewrite: a
    // single-shard cache evicts in access order, with both publishes
    // and find() touches counting as uses.
    cache::TemplateCache cache(/*shards=*/1);
    auto size = syntheticTemplate(16 * 1024)->byteSize();
    cache.setCapacityBytes(3 * size + size / 2); // holds exactly three

    for (u64 n = 1; n <= 4; ++n) {
        cache.publish(syntheticKey(n), syntheticTemplate(16 * 1024));
    }
    // Insert order 1,2,3,4 with room for three: 1 was the LRU victim.
    EXPECT_EQ(cache.find(syntheticKey(1)), nullptr);

    // find(2) touches, so recency is now 3 < 4 < 2: the next victims
    // are 3, then 4 — 2 outlives 4 despite being inserted earlier.
    EXPECT_NE(cache.find(syntheticKey(2)), nullptr);
    cache.publish(syntheticKey(5), syntheticTemplate(16 * 1024));
    EXPECT_EQ(cache.find(syntheticKey(3)), nullptr) << "victim 3";
    cache.publish(syntheticKey(6), syntheticTemplate(16 * 1024));
    EXPECT_EQ(cache.find(syntheticKey(4)), nullptr)
        << "touch order, not insert order, decides the victim";
    EXPECT_NE(cache.find(syntheticKey(2)), nullptr);
    EXPECT_NE(cache.find(syntheticKey(5)), nullptr);
    EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(TemplateCacheTest, ManyEntryShrinkEvictsOldestFirst)
{
    // Regression for the O(n) min-scan per eviction (O(n^2) when
    // --cache-bytes shrinks a full cache): with the intrusive LRU list
    // a mass shrink walks each victim once. Correctness check: the
    // survivors are exactly the most recent keys.
    constexpr u64 kEntries = 512;
    cache::TemplateCache cache;
    auto size = syntheticTemplate(1024)->byteSize();
    cache.setCapacityBytes(kEntries * size * 2);
    for (u64 n = 0; n < kEntries; ++n) {
        cache.publish(syntheticKey(n), syntheticTemplate(1024));
    }
    ASSERT_EQ(cache.stats().entries, kEntries);
    ASSERT_EQ(cache.stats().evictions, 0u);

    cache.setCapacityBytes(4 * size + size / 2); // keep exactly four
    cache::TemplateCache::Stats shrunk = cache.stats();
    EXPECT_EQ(shrunk.entries, 4u);
    EXPECT_EQ(shrunk.evictions, kEntries - 4);
    EXPECT_LE(shrunk.bytes, cache.capacityBytes());
    for (u64 n = 0; n < kEntries; ++n) {
        if (n < kEntries - 4) {
            EXPECT_EQ(cache.find(syntheticKey(n)), nullptr) << n;
        } else {
            EXPECT_NE(cache.find(syntheticKey(n)), nullptr) << n;
        }
    }
}

TEST(TemplateCacheTest, PerShardCapBoundsOneShardWithoutEmptyingOthers)
{
    // One-shard edge: the per-shard cap alone must bound residency even
    // when the global budget is far away (the launch service derives
    // this cap from tenant cache shares).
    cache::TemplateCache cache(/*shards=*/1);
    auto size = syntheticTemplate(16 * 1024)->byteSize();
    cache.setShardCapacityBytes(2 * size + size / 2);

    for (u64 n = 1; n <= 4; ++n) {
        cache.publish(syntheticKey(n), syntheticTemplate(16 * 1024));
    }
    {
        cache::TemplateCache::Stats s = cache.stats();
        EXPECT_EQ(s.entries, 2u);
        EXPECT_EQ(s.evictions, 2u);
        EXPECT_NE(cache.find(syntheticKey(3)), nullptr);
        EXPECT_NE(cache.find(syntheticKey(4)), nullptr);
    }

    // Tightening the cap evicts immediately, LRU first.
    cache.setShardCapacityBytes(size + size / 2);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.find(syntheticKey(3)), nullptr);
    EXPECT_NE(cache.find(syntheticKey(4)), nullptr);
}

TEST(TemplateCacheTest, ShardedLookupsKeepGlobalLruAndSingleFlight)
{
    // Default shard count: keys scatter across shards, yet the global
    // budget and single-flight semantics are shard-transparent.
    cache::TemplateCache cache;
    EXPECT_EQ(cache.shardCount(), cache::TemplateCache::kDefaultShards);

    cache::TemplateCache::Lookup miss = cache.beginLookup(syntheticKey(1));
    EXPECT_TRUE(miss.claimed);
    cache.publish(syntheticKey(1), syntheticTemplate(kPageSize));
    cache::TemplateCache::Lookup hit = cache.beginLookup(syntheticKey(1));
    EXPECT_FALSE(hit.claimed);
    EXPECT_NE(hit.tmpl, nullptr);

    // Concurrent distinct-key lookups across shards: no deadlock, every
    // claim resolves (exercises the per-shard locks under TSan).
    constexpr int kThreads = 4;
    constexpr u64 kKeysPerThread = 32;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            for (u64 n = 0; n < kKeysPerThread; ++n) {
                u64 id = 100 + static_cast<u64>(t) * kKeysPerThread + n;
                cache::TemplateCache::Lookup l =
                    cache.beginLookup(syntheticKey(id));
                if (l.claimed) {
                    cache.publish(syntheticKey(id),
                                  syntheticTemplate(1024));
                } else {
                    ASSERT_NE(l.tmpl, nullptr);
                }
                (void)cache.find(syntheticKey(id));
            }
        });
    }
    for (std::thread &w : workers) {
        w.join();
    }
    cache::TemplateCache::Stats s = cache.stats();
    EXPECT_EQ(s.inserts, 1 + kThreads * kKeysPerThread);
    EXPECT_EQ(s.entries, 1 + kThreads * kKeysPerThread);
}

TEST(TemplateCacheTest, SingleFlightFollowerWaitsForPublish)
{
    cache::TemplateCache cache;
    cache::LaunchKey key = syntheticKey(42);

    cache::TemplateCache::Lookup leader = cache.beginLookup(key);
    ASSERT_EQ(leader.tmpl, nullptr);
    ASSERT_TRUE(leader.claimed);

    cache::TemplateCache::Lookup follower;
    std::thread waiter([&] { follower = cache.beginLookup(key); });
    // Publish only once the follower is observably blocked on the
    // build, so the wait path (not a plain hit) is what's exercised.
    while (cache.stats().single_flight_waits == 0) {
        std::this_thread::yield();
    }
    cache.publish(key, syntheticTemplate(kPageSize));
    waiter.join();

    EXPECT_NE(follower.tmpl, nullptr) << "follower sees the build";
    EXPECT_FALSE(follower.claimed);
    EXPECT_GE(cache.stats().single_flight_waits, 1u);
    EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(TemplateCacheTest, AbandonReleasesTheClaim)
{
    cache::TemplateCache cache;
    cache::LaunchKey key = syntheticKey(7);

    ASSERT_TRUE(cache.beginLookup(key).claimed);
    cache.abandon(key);

    // The failed build must not wedge the key: the next miss claims.
    cache::TemplateCache::Lookup retry = cache.beginLookup(key);
    EXPECT_EQ(retry.tmpl, nullptr);
    EXPECT_TRUE(retry.claimed);
    cache.abandon(key);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(TemplateCacheTest, InvalidateDropsEntryAndDiskFile)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "sevf_cache_inval_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    cache::TemplateCache cache;
    cache.setDiskDir(dir.string());
    cache::LaunchKey key = syntheticKey(3);
    cache.publish(key, syntheticTemplate(kPageSize));
    ASSERT_NE(cache.find(key), nullptr);
    ASSERT_FALSE(std::filesystem::is_empty(dir));

    cache.invalidate(key);
    EXPECT_EQ(cache.find(key), nullptr);
    EXPECT_TRUE(std::filesystem::is_empty(dir))
        << "invalidate must also drop the persisted entry";
    std::filesystem::remove_all(dir);
}

// ===================================================================
// Hit-vs-cold bit-identity (the acceptance invariant)
// ===================================================================

TEST(CacheHitTest, HitIsBitIdenticalToColdForEveryStrategy)
{
    constexpr core::StrategyKind kKinds[] = {
        core::StrategyKind::kStockFirecracker,
        core::StrategyKind::kQemuOvmfSev,
        core::StrategyKind::kSevDirectBoot,
        core::StrategyKind::kSeveriFastBz,
        core::StrategyKind::kSeveriFastVmlinux,
    };
    for (core::StrategyKind kind : kKinds) {
        SCOPED_TRACE(core::strategyName(kind));
        core::Platform platform(sim::CostParams::deterministic());
        core::LaunchRequest req = smallRequest();

        Result<core::LaunchResult> cold =
            core::makeStrategy(kind)->launch(platform, req);
        ASSERT_TRUE(cold.isOk()) << cold.status().toString();
        EXPECT_FALSE(cold->cache_hit);

        Result<core::LaunchResult> hit =
            core::makeStrategy(kind)->launch(platform, req);
        ASSERT_TRUE(hit.isOk()) << hit.status().toString();
        EXPECT_TRUE(hit->cache_hit);

        // Same measurement as an uncached boot on a fresh platform too,
        // so the replayed chain matches reality, not just itself.
        core::Platform fresh(sim::CostParams::deterministic());
        core::LaunchRequest no_cache = req;
        no_cache.use_template_cache = false;
        Result<core::LaunchResult> reference =
            core::makeStrategy(kind)->launch(fresh, no_cache);
        ASSERT_TRUE(reference.isOk());
        EXPECT_FALSE(reference->cache_hit);

        EXPECT_EQ(hit->measurement, cold->measurement);
        EXPECT_EQ(hit->measurement, reference->measurement);
        expectTracesEqual(hit->trace, cold->trace);
        EXPECT_EQ(hit->pre_encrypted_bytes, cold->pre_encrypted_bytes);
        EXPECT_EQ(hit->verifier_stats.pages_validated,
                  cold->verifier_stats.pages_validated);
        EXPECT_EQ(hit->verifier_stats.bytes_hashed,
                  cold->verifier_stats.bytes_hashed);
    }
}

TEST(CacheHitTest, AttestedTailRunsLiveOnAHit)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::LaunchRequest req = smallRequest();
    req.attest = true;

    Result<core::LaunchResult> cold =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    ASSERT_TRUE(cold->attested);

    Result<core::LaunchResult> hit =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(hit.isOk()) << hit.status().toString();
    EXPECT_TRUE(hit->cache_hit);
    EXPECT_TRUE(hit->attested)
        << "secret provisioning must not be served from the cache";
    EXPECT_EQ(hit->provisioned_secret_bytes,
              cold->provisioned_secret_bytes);
    EXPECT_EQ(hit->measurement, cold->measurement);
}

TEST(CacheHitTest, KaslrLaunchesAlwaysBootCold)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::LaunchRequest req = smallRequest();
    req.guest_kaslr = true;
    for (int i = 0; i < 2; ++i) {
        Result<core::LaunchResult> run =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(run.isOk());
        EXPECT_FALSE(run->cache_hit) << "per-launch entropy by design";
    }
    EXPECT_EQ(platform.templateCache().stats().hits, 0u);
}

// ===================================================================
// Disk persistence
// ===================================================================

class DiskCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               "sevf_cache_disk_test";
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(DiskCacheTest, TemplateSurvivesAcrossPlatforms)
{
    core::LaunchRequest req = smallRequest();
    crypto::Sha256Digest cold_measurement;
    {
        core::Platform platform(sim::CostParams::deterministic());
        platform.templateCache().setDiskDir(dir_.string());
        Result<core::LaunchResult> cold =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(cold.isOk()) << cold.status().toString();
        cold_measurement = cold->measurement;
        ASSERT_FALSE(std::filesystem::is_empty(dir_));
    }

    // A fresh platform (fresh in-memory cache) hits from disk.
    core::Platform platform(sim::CostParams::deterministic());
    platform.templateCache().setDiskDir(dir_.string());
    Result<core::LaunchResult> warm =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(warm.isOk()) << warm.status().toString();
    EXPECT_TRUE(warm->cache_hit);
    EXPECT_EQ(warm->measurement, cold_measurement);
}

TEST_F(DiskCacheTest, CorruptEntryFallsBackToColdBoot)
{
    core::LaunchRequest req = smallRequest();
    crypto::Sha256Digest cold_measurement;
    {
        core::Platform platform(sim::CostParams::deterministic());
        platform.templateCache().setDiskDir(dir_.string());
        Result<core::LaunchResult> cold =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(cold.isOk());
        cold_measurement = cold->measurement;
    }

    // Flip bytes in the middle of every persisted template.
    for (const auto &entry : std::filesystem::directory_iterator(dir_)) {
        std::fstream f(entry.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(entry.path()) / 2));
        const char garbage[8] = {'\x5a', '\x5a', '\x5a', '\x5a',
                                 '\x5a', '\x5a', '\x5a', '\x5a'};
        f.write(garbage, sizeof garbage);
    }

    core::Platform platform(sim::CostParams::deterministic());
    platform.templateCache().setDiskDir(dir_.string());
    Result<core::LaunchResult> run =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(run.isOk())
        << "corruption must degrade to a cold boot, not an error: "
        << run.status().toString();
    EXPECT_FALSE(run->cache_hit);
    EXPECT_EQ(run->measurement, cold_measurement);
}

TEST_F(DiskCacheTest, TornEntryIsCountedRepairedAndRecovered)
{
    // A partial write (host crash mid-persist) leaves a truncated file:
    // the SHA-256 trailer no longer matches, so the load must fail as a
    // counted disk ERROR (not a silent miss), the launch must fall back
    // cold with the identical measurement, and the re-publish must
    // repair the entry so the next platform warm-hits again.
    core::LaunchRequest req = smallRequest();
    crypto::Sha256Digest cold_measurement;
    {
        core::Platform platform(sim::CostParams::deterministic());
        platform.templateCache().setDiskDir(dir_.string());
        Result<core::LaunchResult> cold =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(cold.isOk());
        cold_measurement = cold->measurement;
    }

    for (const auto &entry : std::filesystem::directory_iterator(dir_)) {
        std::filesystem::resize_file(
            entry.path(), std::filesystem::file_size(entry.path()) / 2);
    }

    {
        core::Platform platform(sim::CostParams::deterministic());
        platform.templateCache().setDiskDir(dir_.string());
        Result<core::LaunchResult> run =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(run.isOk()) << run.status().toString();
        EXPECT_FALSE(run->cache_hit);
        EXPECT_EQ(run->measurement, cold_measurement);
        cache::TemplateCache::Stats stats =
            platform.templateCache().stats();
        EXPECT_GE(stats.disk_errors, 1u)
            << "a torn file is an I/O error, not a plain miss";
        EXPECT_EQ(stats.quarantined, 0u)
            << "one bad file must not quarantine the tier";
    }

    // The cold fallback re-published over the torn file: recovered.
    core::Platform platform(sim::CostParams::deterministic());
    platform.templateCache().setDiskDir(dir_.string());
    Result<core::LaunchResult> warm =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(warm.isOk());
    EXPECT_TRUE(warm->cache_hit);
    EXPECT_EQ(warm->measurement, cold_measurement);
    EXPECT_EQ(platform.templateCache().stats().disk_errors, 0u);
}

// ===================================================================
// Untrusted element counts in the file format
// ===================================================================

/**
 * A serialized template with one empty plan region and nothing else:
 * every counted list is small, so each count's offset is fixed. Body
 * layout: magic 8, measurement 32, pre-encrypted bytes 8, tail flag 1,
 * verifier stats 32, plan count 4, region (name length 4, gpa 8, bytes
 * length 8, digest count 4), memory size 8, segment count 4, range
 * count 4, step count 4; then the 32-byte SHA-256 trailer.
 */
ByteVec
minimalTemplateFile()
{
    cache::LaunchTemplate tmpl;
    tmpl.plan.push_back(cache::TemplateRegion{});
    return cache::serializeTemplate(tmpl);
}

constexpr u64 kMinimalBodySize = 129;
constexpr std::pair<const char *, u64> kCountOffsets[] = {
    {"plan", 81}, {"digest", 105}, {"segment", 117},
    {"range", 121}, {"step", 125},
};

/** Overwrite the u32 at @p offset and re-seal the trailer. */
ByteVec
withCount(ByteVec file, u64 offset, u32 count)
{
    std::memcpy(file.data() + offset, &count, sizeof count);
    u64 body = file.size() - 32;
    crypto::Sha256Digest d =
        crypto::Sha256::digest(ByteSpan(file.data(), body));
    std::copy(d.begin(), d.end(), file.begin() + body);
    return file;
}

TEST(TemplateIoTest, HugeCountsAreTypedCorruption)
{
    ByteVec file = minimalTemplateFile();
    ASSERT_EQ(file.size(), kMinimalBodySize + 32) << "layout changed";
    ASSERT_TRUE(cache::deserializeTemplate(file).isOk());
    for (const auto &[name, offset] : kCountOffsets) {
        SCOPED_TRACE(name);
        Result<cache::LaunchTemplate> loaded = cache::deserializeTemplate(
            withCount(file, offset, 0xFFFFFFFFu));
        ASSERT_FALSE(loaded.isOk());
        EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupted)
            << loaded.status().toString();
    }
}

TEST_F(DiskCacheTest, HugeCountFileIsAColdMiss)
{
    cache::LaunchKey key = syntheticKey(7);
    {
        cache::TemplateCache writer;
        writer.setDiskDir(dir_.string());
        writer.publish(key, syntheticTemplate(kPageSize));
    }
    std::filesystem::path stored;
    for (const auto &entry : std::filesystem::directory_iterator(dir_)) {
        stored = entry.path();
    }
    ASSERT_FALSE(stored.empty());

    for (const auto &[name, offset] : kCountOffsets) {
        SCOPED_TRACE(name);
        ByteVec crafted =
            withCount(minimalTemplateFile(), offset, 0xFFFFFFFFu);
        {
            std::ofstream out(stored, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(crafted.data()),
                      static_cast<std::streamsize>(crafted.size()));
        }
        cache::TemplateCache reader;
        reader.setDiskDir(dir_.string());
        cache::TemplateCache::Lookup lookup = reader.beginLookup(key);
        EXPECT_EQ(lookup.tmpl, nullptr);
        EXPECT_TRUE(lookup.claimed) << "the caller must build cold";
        EXPECT_EQ(reader.stats().misses, 1u);
        reader.abandon(key);
    }
}

// ===================================================================
// Template capture against a reference image
// ===================================================================

/**
 * Check @p snap against a reference built from the raw guest image:
 * every labelled page appears as its plaintext in an encrypted
 * segment, every other non-zero page byte-identical in a shared
 * segment, and nothing else. Also checks the written-page map's
 * invariant: a page holding any non-zero byte is marked written.
 */
void
expectCaptureMatchesReference(const memory::GuestMemory &mem,
                              const memory::MemorySnapshot &snap)
{
    ASSERT_EQ(snap.memory_size, mem.size());
    struct Captured {
        bool encrypted;
        const u8 *bytes;
    };
    std::map<u64, Captured> captured;
    for (const memory::SnapshotSegment &seg : snap.segments) {
        ASSERT_EQ(seg.gpa % kPageSize, 0u);
        ASSERT_NE(seg.bytes, nullptr);
        ASSERT_EQ(seg.bytes->size() % kPageSize, 0u);
        for (u64 off = 0; off < seg.bytes->size(); off += kPageSize) {
            bool fresh =
                captured
                    .emplace((seg.gpa + off) / kPageSize,
                             Captured{seg.encrypted,
                                      seg.bytes->data() + off})
                    .second;
            ASSERT_TRUE(fresh) << "page captured twice at " << seg.gpa + off;
        }
    }

    static const ByteVec kZeroPage(kPageSize, 0);
    ByteSpan raw = mem.raw();
    u64 expected = 0;
    for (Gpa gpa = 0; gpa < mem.size(); gpa += kPageSize) {
        const u8 *page = raw.data() + gpa;
        bool zero = std::memcmp(page, kZeroPage.data(), kPageSize) == 0;
        ASSERT_TRUE(zero || mem.pageWritten(gpa))
            << "non-zero page not in the written map at " << gpa;
        auto it = captured.find(gpa / kPageSize);
        if (mem.pageLabel(gpa) != taint::kNone) {
            ++expected;
            ASSERT_NE(it, captured.end()) << "labelled page missing at "
                                          << gpa;
            ASSERT_TRUE(it->second.encrypted) << gpa;
            Result<ByteVec> plain = mem.guestRead(gpa, kPageSize, true);
            ASSERT_TRUE(plain.isOk()) << plain.status().toString();
            ASSERT_EQ(std::memcmp(plain->data(), it->second.bytes,
                                  kPageSize),
                      0)
                << "encrypted segment is not the plaintext at " << gpa;
        } else if (!zero) {
            ++expected;
            ASSERT_NE(it, captured.end()) << "non-zero page missing at "
                                          << gpa;
            ASSERT_FALSE(it->second.encrypted) << gpa;
            ASSERT_EQ(std::memcmp(page, it->second.bytes, kPageSize), 0)
                << "shared segment differs from DRAM at " << gpa;
        } else {
            ASSERT_EQ(it, captured.end()) << "zero page captured at " << gpa;
        }
    }
    EXPECT_EQ(captured.size(), expected);
}

TEST(CaptureOracleTest, ColdLaunchCaptureMatchesReferenceForEveryStrategy)
{
    constexpr core::StrategyKind kKinds[] = {
        core::StrategyKind::kStockFirecracker,
        core::StrategyKind::kQemuOvmfSev,
        core::StrategyKind::kSevDirectBoot,
        core::StrategyKind::kSeveriFastBz,
        core::StrategyKind::kSeveriFastVmlinux,
    };
    for (core::StrategyKind kind : kKinds) {
        SCOPED_TRACE(core::strategyName(kind));
        core::Platform platform(sim::CostParams::deterministic());
        core::LaunchRequest req = smallRequest();
        req.use_template_cache = false;
        req.keep_vm = true;
        Result<core::LaunchResult> cold =
            core::makeStrategy(kind)->launch(platform, req);
        ASSERT_TRUE(cold.isOk()) << cold.status().toString();
        ASSERT_NE(cold->vm, nullptr);
        const memory::GuestMemory &mem = cold->vm->memory();
        Result<memory::MemorySnapshot> snap = mem.captureSnapshot({});
        ASSERT_TRUE(snap.isOk()) << snap.status().toString();
        ASSERT_FALSE(snap->segments.empty());
        expectCaptureMatchesReference(mem, *snap);
    }
}

/** A small SEV-SNP guest with its encryption context attached. */
class CaptureTest : public ::testing::Test
{
  protected:
    static constexpr u32 kAsid = 5;
    static constexpr u64 kPages = 16;

    static std::unique_ptr<memory::GuestMemory>
    makeMemory(u64 key_seed)
    {
        auto mem = std::make_unique<memory::GuestMemory>(
            kPages * kPageSize, 0x100000000ull, kAsid);
        Rng rng(key_seed);
        crypto::Aes128Key key, tweak;
        rng.fill(key);
        rng.fill(tweak);
        mem->attachEncryption(std::make_unique<crypto::XexCipher>(key, tweak));
        return mem;
    }

    Result<memory::MemorySnapshot> capture() const
    {
        return mem_->captureSnapshot({});
    }

    std::unique_ptr<memory::GuestMemory> mem_ = makeMemory(99);
};

TEST_F(CaptureTest, EachStorePathOnAnUntouchedPageIsCaptured)
{
    ByteVec data(100, 0x5c);
    mem_->hostWriteUnchecked(3 * kPageSize + 8, data);
    ASSERT_TRUE(mem_->guestWrite(6 * kPageSize + 40, data, false).isOk());
    ASSERT_TRUE(mem_->pspEncryptInPlace(9 * kPageSize, kPageSize).isOk());

    Result<memory::MemorySnapshot> snap = capture();
    ASSERT_TRUE(snap.isOk()) << snap.status().toString();
    ASSERT_EQ(snap->segments.size(), 3u);
    EXPECT_EQ(snap->segments[0].gpa, 3 * kPageSize);
    EXPECT_FALSE(snap->segments[0].encrypted);
    EXPECT_EQ((*snap->segments[0].bytes)[8], 0x5c);
    EXPECT_EQ(snap->segments[1].gpa, 6 * kPageSize);
    EXPECT_FALSE(snap->segments[1].encrypted);
    EXPECT_EQ((*snap->segments[1].bytes)[40], 0x5c);
    EXPECT_EQ(snap->segments[2].gpa, 9 * kPageSize);
    EXPECT_TRUE(snap->segments[2].encrypted);
    expectCaptureMatchesReference(*mem_, *snap);
}

TEST_F(CaptureTest, AllZeroWriteYieldsNoSegment)
{
    ByteVec zeros(2 * kPageSize, 0);
    ASSERT_TRUE(mem_->hostWrite(2 * kPageSize, zeros).isOk());
    ASSERT_TRUE(mem_->guestWrite(7 * kPageSize, zeros, false).isOk());
    EXPECT_TRUE(mem_->pageWritten(2 * kPageSize));
    EXPECT_TRUE(mem_->pageWritten(7 * kPageSize));
    EXPECT_FALSE(mem_->pageWritten(0));

    Result<memory::MemorySnapshot> snap = capture();
    ASSERT_TRUE(snap.isOk()) << snap.status().toString();
    EXPECT_TRUE(snap->segments.empty())
        << "a written page that is still zero reproduces itself";
}

TEST_F(CaptureTest, CopyOnWriteViewCapturedAgainRoundTrips)
{
    ByteVec shared(kPageSize + 300, 0x21);
    ASSERT_TRUE(mem_->hostWrite(1 * kPageSize, shared).isOk());
    ByteVec priv(2 * kPageSize, 0x42);
    ASSERT_TRUE(mem_->hostWrite(8 * kPageSize, priv).isOk());
    ASSERT_TRUE(mem_->pspEncryptInPlace(8 * kPageSize, priv.size()).isOk());
    Result<memory::MemorySnapshot> first = capture();
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    ASSERT_EQ(first->segments.size(), 2u);

    // A fresh VM with a different key: the view re-encrypts on touch.
    std::unique_ptr<memory::GuestMemory> copy = makeMemory(7);
    ASSERT_TRUE(copy->instantiateSnapshot(*first).isOk());
    Result<memory::MemorySnapshot> second = copy->captureSnapshot({});
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    expectCaptureMatchesReference(*copy, *second);
    ASSERT_EQ(second->segments.size(), first->segments.size());
    for (std::size_t i = 0; i < first->segments.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(second->segments[i].gpa, first->segments[i].gpa);
        EXPECT_EQ(second->segments[i].encrypted,
                  first->segments[i].encrypted);
        EXPECT_EQ(*second->segments[i].bytes, *first->segments[i].bytes);
    }
    ASSERT_EQ(second->validated.size(), first->validated.size());
    for (std::size_t i = 0; i < first->validated.size(); ++i) {
        EXPECT_EQ(second->validated[i].begin, first->validated[i].begin);
        EXPECT_EQ(second->validated[i].end, first->validated[i].end);
    }
}

// ===================================================================
// Copy-on-write instantiation (memory tier of a hit)
// ===================================================================

TEST(CowTest, PagesMaterializeLazilyOnFirstTouch)
{
    memory::GuestMemory mem(8 * kPageSize, 0x100000000ull, /*asid=*/0);
    auto data = std::make_shared<const ByteVec>(2 * kPageSize, u8{0x7e});
    ASSERT_TRUE(mem.mapCowPages(0, data, /*encrypted=*/false).isOk());
    EXPECT_EQ(mem.cowPageCount(), 2u);
    EXPECT_EQ(mem.cowMaterializedCount(), 0u);

    // Touching one page materializes exactly that page.
    Result<ByteVec> page = mem.hostRead(0, kPageSize);
    ASSERT_TRUE(page.isOk());
    EXPECT_EQ((*page)[0], 0x7e);
    EXPECT_EQ(mem.cowMaterializedCount(), 1u);
    EXPECT_EQ(mem.cowPageCount(), 1u);

    // Unmapped pages are untouched zero DRAM.
    Result<ByteVec> zero = mem.hostRead(4 * kPageSize, kPageSize);
    ASSERT_TRUE(zero.isOk());
    EXPECT_EQ((*zero)[0], 0);
    EXPECT_EQ(mem.cowMaterializedCount(), 1u);
}

TEST(CowTest, RawViewMaterializesEverything)
{
    memory::GuestMemory mem(8 * kPageSize, 0x100000000ull, /*asid=*/0);
    auto data = std::make_shared<const ByteVec>(3 * kPageSize, u8{0x11});
    ASSERT_TRUE(mem.mapCowPages(kPageSize, data, false).isOk());
    ByteSpan raw = mem.raw();
    EXPECT_EQ(mem.cowPageCount(), 0u);
    EXPECT_EQ(mem.cowMaterializedCount(), 3u);
    EXPECT_EQ(raw[kPageSize], 0x11);
    EXPECT_EQ(raw[0], 0);
}

} // namespace
} // namespace sevf
