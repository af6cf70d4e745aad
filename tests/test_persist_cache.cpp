// Persistent flowpipe cache tests (CTest label: parallel; the TSan preset
// runs this suite). Three contracts under test (DESIGN.md §15):
//
//  1. Serialization bit-identity: a value round-tripped through the binary
//     format re-serializes to the exact same bytes — the differential test
//     that makes "deserialized hit == recomputed miss" checkable without
//     an equality operator on every type.
//  2. Warm start: a fresh FlowpipeCache over a populated directory serves
//     previous-run results bit for bit (and backfills its memory tier);
//     records written under a different salt are invisible.
//  3. Corruption degrades to cold, never to an error: truncated shard
//     logs, flipped checksum bytes, bumped format versions, and mismatched
//     header salts all behave like an empty cache with correct stats.
//
// The learner's dual gradient pass records (GradFlowpipe) get the same
// three checks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include "core/learner.hpp"
#include "core/verdict.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/cache.hpp"
#include "reach/grad_flowpipe.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv {
namespace {

namespace fs = std::filesystem;
namespace ser = reach::ser;

// Merge the serializer overload sets (reach types live in reach::ser,
// VerificationReport in core) so the differential helper below is generic.
using core::get;
using core::put;
using reach::ser::get;
using reach::ser::put;

template <typename T>
ser::Bytes to_bytes(const T& v) {
  ser::Writer w;
  put(w, v);
  return w.take();
}

/// The differential round-trip: serialize, parse, re-serialize, compare
/// bytes. Byte equality implies bit equality of every stored double
/// (including -0.0 vs +0.0 and NaN payloads, where operator== would lie).
template <typename T>
void expect_roundtrip_bit_identical(const T& v) {
  const ser::Bytes a = to_bytes(v);
  ser::Reader r(a);
  T back{};
  ASSERT_TRUE(get(r, back));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(to_bytes(back), a);
}

// --- Random corpus generators -------------------------------------------

double random_coeff(std::mt19937_64& rng) {
  // Mix ordinary magnitudes with every awkward double the format must
  // carry exactly: signed zeros, infinities, denormals, NaN payloads.
  switch (rng() % 8) {
    case 0:
      return -0.0;
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return 4.9406564584124654e-324;  // smallest denormal
    case 4:
      return std::numeric_limits<double>::quiet_NaN();
    default:
      return std::uniform_real_distribution<double>(-1e3, 1e3)(rng);
  }
}

poly::Poly random_poly(std::mt19937_64& rng, std::size_t nvars) {
  std::vector<std::uint64_t> keys;
  const std::size_t nterms = rng() % 13;
  for (std::size_t i = 0; i < nterms; ++i) keys.push_back(rng());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<poly::Term> terms(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    terms[i] = poly::Term{keys[i], random_coeff(rng)};
  }
  return poly::Poly::from_sorted_terms(nvars, std::move(terms));
}

interval::Interval random_interval(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> d(-50.0, 50.0);
  double lo = d(rng), hi = d(rng);
  if (lo > hi) std::swap(lo, hi);
  if (rng() % 8 == 0) lo = -0.0, hi = 0.0;
  return interval::Interval(lo, hi);
}

geom::Box random_box(std::mt19937_64& rng, std::size_t dim) {
  interval::IVec v(dim);
  for (std::size_t i = 0; i < dim; ++i) v[i] = random_interval(rng);
  return geom::Box(v);
}

taylor::TaylorModel random_tm(std::mt19937_64& rng, std::size_t nvars) {
  return taylor::TaylorModel{random_poly(rng, nvars), random_interval(rng)};
}

reach::Flowpipe random_flowpipe(std::mt19937_64& rng) {
  reach::Flowpipe fp;
  const std::size_t steps = 1 + rng() % 4;
  for (std::size_t k = 0; k <= steps; ++k) {
    fp.step_sets.push_back(random_box(rng, 2));
  }
  for (std::size_t k = 0; k < steps; ++k) {
    fp.interval_hulls.push_back(random_box(rng, 2));
    // The public constructor hulls the points; serialization must keep the
    // stored vertex order verbatim.
    fp.step_polys.push_back(geom::Polygon2d(
        {{0.0, 0.0}, {double(k + 1), 0.0}, {0.5, double(k + 1)}}));
  }
  fp.valid = rng() % 4 != 0;
  if (!fp.valid) fp.failure = "remainder validation failed at step 3";
  fp.tm_stats.substeps = rng() % 100;
  fp.tm_stats.rejects = rng() % 10;
  fp.tm_stats.h_min = 0.01;
  fp.tm_stats.h_max = 0.1;
  return fp;
}

// --- Serialization round-trip corpus ------------------------------------

TEST(PersistSerialize, PolyCorpusRoundTripBitIdentical) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    expect_roundtrip_bit_identical(random_poly(rng, rng() % 6));
  }
}

TEST(PersistSerialize, TaylorModelAndVectorRoundTrip) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip_bit_identical(random_tm(rng, 1 + rng() % 4));
    taylor::TmVec v(1 + rng() % 3);
    for (auto& tm : v) tm = random_tm(rng, 3);
    expect_roundtrip_bit_identical(v);
  }
}

TEST(PersistSerialize, FlowpipeRoundTripBitIdentical) {
  std::mt19937_64 rng(13);
  for (int i = 0; i < 100; ++i) {
    expect_roundtrip_bit_identical(random_flowpipe(rng));
  }
}

TEST(PersistSerialize, VerificationReportRoundTrip) {
  core::VerificationReport rep;
  rep.verdict = core::Verdict::kReachAvoid;
  rep.facts.safe_certified = true;
  rep.facts.goal_certified = true;
  rep.facts.goal_step = 17;
  rep.flowpipe_valid = true;
  rep.detail = "safety certified for X0; goal containment at step 17";
  rep.tm_stats.substeps = 120;
  rep.tm_stats.h_min = 0.0125;
  rep.tm_stats.h_max = 0.05;
  expect_roundtrip_bit_identical(rep);

  // An out-of-range verdict byte is corruption, not UB.
  ser::Bytes b = to_bytes(rep);
  b[0] = 17;
  ser::Reader r(b);
  core::VerificationReport back;
  EXPECT_FALSE(get(r, back));
}

TEST(PersistSerialize, TruncatedInputAlwaysFails) {
  std::mt19937_64 rng(19);
  const reach::Flowpipe fp = random_flowpipe(rng);
  const ser::Bytes b = to_bytes(fp);
  for (std::size_t len = 0; len < b.size(); len += 7) {
    ser::Reader r(b.data(), len);
    reach::Flowpipe back;
    EXPECT_FALSE(get(r, back)) << "prefix of " << len << " bytes parsed";
  }
}

TEST(PersistSerialize, MalformedInputRejected) {
  // Unsorted term keys violate the Poly invariant.
  ser::Writer w;
  w.u64(2);  // nvars
  w.u64(2);  // terms
  w.u64(9);
  w.f64(1.0);
  w.u64(3);  // key decreases: corrupt
  w.f64(2.0);
  ser::Reader r(w.bytes());
  poly::Poly p;
  EXPECT_FALSE(get(r, p));

  // Inverted interval bounds (and NaN bounds) are rejected.
  ser::Writer w2;
  w2.f64(2.0);
  w2.f64(1.0);
  ser::Reader r2(w2.bytes());
  interval::Interval iv;
  EXPECT_FALSE(get(r2, iv));

  // A huge length field must fail fast, not allocate.
  ser::Writer w3;
  w3.u64(1ull << 60);
  ser::Reader r3(w3.bytes());
  interval::IVec vec;
  EXPECT_FALSE(get(r3, vec));
}

TEST(PersistSerialize, ChecksumDetectsSingleByteFlips) {
  std::mt19937_64 rng(23);
  ser::Bytes b(257);
  for (auto& x : b) x = std::uint8_t(rng());
  const std::uint64_t sum = ser::checksum64(b.data(), b.size());
  for (std::size_t i = 0; i < b.size(); i += 13) {
    b[i] ^= 0x40;
    EXPECT_NE(ser::checksum64(b.data(), b.size()), sum) << "flip at " << i;
    b[i] ^= 0x40;
  }
  // Length-salting: a prefix never checksums equal to the whole.
  EXPECT_NE(ser::checksum64(b.data(), b.size() - 8), sum);
}

// --- Two-tier cache -----------------------------------------------------

/// Fresh per-test directory under the test temp root.
fs::path cache_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dwvfc_" + name);
  fs::remove_all(dir);
  return dir;
}

reach::FlowpipeCache::Key test_key(std::uint64_t i) {
  interval::IVec iv{interval::Interval(0.0, double(i) + 0.5)};
  return reach::FlowpipeCache::make_key(42, geom::Box(iv),
                                        linalg::Vec{double(i), -1.0});
}

reach::Flowpipe test_pipe(std::uint64_t i) {
  std::mt19937_64 rng(1000 + i);
  reach::Flowpipe fp = random_flowpipe(rng);
  fp.tm_stats.substeps = i;  // easy identity check
  return fp;
}

reach::FlowpipeCacheConfig disk_config(const fs::path& dir,
                                       std::uint64_t salt = 0x5a17) {
  reach::FlowpipeCacheConfig cfg;
  cfg.dir = dir.string();
  cfg.disk_salt = salt;
  cfg.disk_shards = 1;  // single shard log: easy to corrupt surgically
  return cfg;
}

/// Path of the single shard log produced by disk_config.
fs::path shard_path(const fs::path& dir, std::uint64_t salt = 0x5a17) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx-00.dwvfc",
                static_cast<unsigned long long>(salt));
  return dir / buf;
}

void populate(const fs::path& dir, std::uint64_t n) {
  reach::FlowpipeCache cache(disk_config(dir));
  for (std::uint64_t i = 0; i < n; ++i) cache.insert(test_key(i), test_pipe(i));
}

TEST(PersistCache, WarmStartAcrossInstancesBitIdentical) {
  const fs::path dir = cache_dir("warm");
  populate(dir, 8);

  reach::FlowpipeCache warm(disk_config(dir));
  EXPECT_EQ(warm.stats().disk_entries, 8u);
  EXPECT_EQ(warm.size(), 0u);  // memory tier starts empty
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto hit = warm.lookup(test_key(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(to_bytes(*hit), to_bytes(test_pipe(i)));
  }
  reach::CacheStats s = warm.stats();
  EXPECT_EQ(s.disk_hits, 8u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_GT(s.disk_bytes_read, 0u);

  // The disk hits backfilled the memory tier: repeats are RAM hits.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(warm.lookup(test_key(i)).has_value());
  }
  s = warm.stats();
  EXPECT_EQ(s.hits, 8u);
  EXPECT_EQ(s.disk_hits, 8u);
}

TEST(PersistCache, WalkLookupServesDiskHitsLikeLookup) {
  const fs::path dir = cache_dir("walk");
  populate(dir, 4);

  // The batched walk transcript must not depend on which tier a hit came
  // from: lookup_walk over a warm directory behaves exactly like lookup.
  reach::FlowpipeCache warm(disk_config(dir));
  for (std::uint64_t i = 0; i < 4; ++i) {
    bool pending = false;
    const auto hit = warm.lookup_walk(test_key(i), &pending);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(pending);
    EXPECT_EQ(to_bytes(*hit), to_bytes(test_pipe(i)));
  }
  const reach::CacheStats s = warm.stats();
  EXPECT_EQ(s.disk_hits, 4u);
  EXPECT_EQ(s.misses, 0u);

  // The batched backfill path (insert_pending + replace) persists too.
  warm.insert_pending(test_key(90));
  warm.replace(test_key(90), test_pipe(90));
  reach::FlowpipeCache reopened(disk_config(dir));
  const auto hit = reopened.lookup(test_key(90));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(to_bytes(*hit), to_bytes(test_pipe(90)));
}

TEST(PersistCache, SaltSeparationNeverAliases) {
  const fs::path dir = cache_dir("salt");
  populate(dir, 3);

  // Same directory, different salt: cold — the other configuration's
  // records are invisible (different file, checked header).
  reach::FlowpipeCache other(disk_config(dir, 0xbeef));
  EXPECT_EQ(other.stats().disk_entries, 0u);
  EXPECT_FALSE(other.lookup(test_key(0)).has_value());
  other.insert(test_key(0), test_pipe(77));

  // The original salt still sees its own records, not the other's.
  reach::FlowpipeCache warm(disk_config(dir));
  EXPECT_EQ(warm.stats().disk_entries, 3u);
  const auto hit = warm.lookup(test_key(0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(to_bytes(*hit), to_bytes(test_pipe(0)));
}

TEST(PersistCache, TruncatedShardDegradesToColdTail) {
  const fs::path dir = cache_dir("trunc");
  populate(dir, 5);
  const fs::path file = shard_path(dir);
  const std::uint64_t full = fs::file_size(file);
  fs::resize_file(file, full - 5);  // tear the last record

  reach::FlowpipeCache warm(disk_config(dir));
  // The torn record is dropped (a miss); every earlier record survives.
  EXPECT_EQ(warm.stats().disk_entries, 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(warm.lookup(test_key(i)).has_value());
  }
  EXPECT_FALSE(warm.lookup(test_key(4)).has_value());
  const reach::CacheStats s = warm.stats();
  EXPECT_EQ(s.disk_hits, 4u);
  EXPECT_EQ(s.misses, 1u);
  // The tail was truncated away, so this run's appends stay reachable.
  warm.insert(test_key(4), test_pipe(4));
  reach::FlowpipeCache again(disk_config(dir));
  EXPECT_EQ(again.stats().disk_entries, 5u);

  // Truncation into the header is a cold (but working) cache.
  fs::resize_file(file, 10);
  reach::FlowpipeCache cold(disk_config(dir));
  EXPECT_EQ(cold.stats().disk_entries, 0u);
  EXPECT_FALSE(cold.lookup(test_key(0)).has_value());
  cold.insert(test_key(0), test_pipe(0));
  EXPECT_EQ(cold.stats().disk_entries, 1u);
}

void flip_byte(const fs::path& file, std::uint64_t off) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(off));
  char c = 0;
  f.read(&c, 1);
  c ^= 0x40;
  f.seekp(static_cast<std::streamoff>(off));
  f.write(&c, 1);
}

TEST(PersistCache, FlippedPayloadByteFailsChecksumAndScansCold) {
  const fs::path dir = cache_dir("flip");
  populate(dir, 3);
  const fs::path file = shard_path(dir);
  // Flip a byte in the FIRST record's payload (header is 24 bytes, frame
  // 16): the scan stops there, so all records degrade to misses.
  flip_byte(file, 24 + 16 + 3);

  reach::FlowpipeCache warm(disk_config(dir));
  EXPECT_EQ(warm.stats().disk_entries, 0u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(warm.lookup(test_key(i)).has_value());
  }
  EXPECT_EQ(warm.stats().misses, 3u);
  EXPECT_EQ(warm.stats().disk_hits, 0u);
}

TEST(PersistCache, BumpedVersionHeaderIsCold) {
  const fs::path dir = cache_dir("version");
  populate(dir, 3);
  flip_byte(shard_path(dir), 8);  // version u32 at header offset 8

  reach::FlowpipeCache warm(disk_config(dir));
  EXPECT_EQ(warm.stats().disk_entries, 0u);
  EXPECT_FALSE(warm.lookup(test_key(0)).has_value());
  // The stale file was reset; the cache is writable again.
  warm.insert(test_key(0), test_pipe(0));
  reach::FlowpipeCache again(disk_config(dir));
  EXPECT_EQ(again.stats().disk_entries, 1u);
}

TEST(PersistCache, MismatchedHeaderSaltIsCold) {
  const fs::path dir = cache_dir("hdrsalt");
  populate(dir, 3);
  flip_byte(shard_path(dir), 16);  // salt u64 at header offset 16

  reach::FlowpipeCache warm(disk_config(dir));
  EXPECT_EQ(warm.stats().disk_entries, 0u);
  EXPECT_FALSE(warm.lookup(test_key(0)).has_value());
}

TEST(PersistCache, UnwritableDirectoryThrows) {
  const fs::path dir = cache_dir("badpath");
  fs::create_directories(dir.parent_path());
  { std::ofstream(dir) << "not a directory"; }  // file where the dir goes
  EXPECT_THROW(reach::FlowpipeCache(disk_config(dir)), std::runtime_error);
}

TEST(PersistCache, CompactionDropsSupersededAndIsFixpoint) {
  const fs::path dir = cache_dir("compact");
  populate(dir, 4);
  const fs::path file = shard_path(dir);

  // Duplicate the first record by hand (append-only last-wins makes it
  // superseded) — running instances never write duplicates themselves.
  std::vector<char> bytes(fs::file_size(file));
  {
    std::ifstream in(file, std::ios::binary);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + 24, 8);
  {
    std::ofstream out(file, std::ios::binary | std::ios::app);
    out.write(bytes.data() + 24, static_cast<std::streamsize>(16 + len));
  }

  const std::uint64_t before = fs::file_size(file);
  const reach::CacheCompactionStats cs = reach::compact_cache_dir(dir.string());
  EXPECT_EQ(cs.files, 1u);
  EXPECT_EQ(cs.records_kept, 4u);
  EXPECT_EQ(cs.records_dropped, 1u);
  EXPECT_EQ(cs.bytes_before, before);
  EXPECT_LT(cs.bytes_after, before);

  // Fixpoint: a second compaction changes nothing.
  const reach::CacheCompactionStats cs2 =
      reach::compact_cache_dir(dir.string());
  EXPECT_EQ(cs2.records_kept, 4u);
  EXPECT_EQ(cs2.records_dropped, 0u);
  EXPECT_EQ(cs2.bytes_after, cs2.bytes_before);

  // The compacted log still warm-starts bit-identically.
  reach::FlowpipeCache warm(disk_config(dir));
  EXPECT_EQ(warm.stats().disk_entries, 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto hit = warm.lookup(test_key(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(to_bytes(*hit), to_bytes(test_pipe(i)));
  }
}

TEST(PersistCache, ConcurrentInsertLookupIsSafe) {
  const fs::path dir = cache_dir("threads");
  reach::FlowpipeCache cache(disk_config(dir));
  constexpr std::uint64_t kKeys = 64;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const std::uint64_t k = (i + std::uint64_t(t) * 13) % kKeys;
        if (const auto hit = cache.lookup(test_key(k))) {
          EXPECT_EQ(hit->tm_stats.substeps, k);
        } else {
          cache.insert(test_key(k), test_pipe(k));
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(cache.stats().disk_entries, kKeys);

  reach::FlowpipeCache warm(disk_config(dir));
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const auto hit = warm.lookup(test_key(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(to_bytes(*hit), to_bytes(test_pipe(i)));
  }
}

// --- End-to-end through CachingVerifier ---------------------------------

std::shared_ptr<const reach::TmVerifier> oscillator_verifier(
    ode::Benchmark& bench, const reach::TmReachOptions& opt = {}) {
  bench.spec.steps = 4;
  bench.spec.stop_at_goal = false;
  return std::make_shared<const reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::PolarAbstraction>(),
      opt);
}

nn::MlpController oscillator_controller(std::uint64_t seed) {
  nn::MlpController ctrl({2, 5, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> d(0.0, 0.4);
  linalg::Vec p = ctrl.params();
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = d(rng);
  ctrl.set_params(p);
  return ctrl;
}

TEST(PersistCache, CachingVerifierWarmStartServesExactBits) {
  const fs::path dir = cache_dir("verifier");
  ode::Benchmark bench = ode::make_oscillator_benchmark();
  const auto inner = oscillator_verifier(bench);
  const nn::MlpController ctrl = oscillator_controller(3);

  reach::FlowpipeCacheConfig cfg;
  cfg.dir = dir.string();  // salt defaults to the verifier key seed

  reach::Flowpipe cold_fp;
  {
    const reach::CachingVerifier cold(inner, cfg);
    cold_fp = cold.compute(bench.spec.x0, ctrl);
    EXPECT_EQ(cold.cache()->stats().misses, 1u);
  }
  const reach::CachingVerifier warm(inner, cfg);
  const reach::Flowpipe warm_fp = warm.compute(bench.spec.x0, ctrl);
  const reach::CacheStats s = warm.cache()->stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.miss_compute_seconds, 0.0);
  EXPECT_EQ(to_bytes(warm_fp), to_bytes(cold_fp));

  // A differently-configured verifier over the SAME directory defaults to
  // a different salt (cache_salt covers TmReachOptions), so it cannot be
  // served the other configuration's pipes.
  reach::TmReachOptions other_opt;
  other_opt.order = 4;
  const reach::CachingVerifier other(oscillator_verifier(bench, other_opt),
                                     cfg);
  const reach::Flowpipe other_fp = other.compute(bench.spec.x0, ctrl);
  EXPECT_EQ(other.cache()->stats().misses, 1u);
  EXPECT_EQ(other.cache()->stats().disk_hits, 0u);
  EXPECT_NE(to_bytes(other_fp), to_bytes(cold_fp));
}

// --- Dual gradient pass records -------------------------------------------

std::shared_ptr<const reach::TmVerifier> acc_linctrl_verifier(
    const ode::Benchmark& bench, bool adaptive) {
  reach::TmReachOptions opt;
  opt.adaptive = adaptive;
  return std::make_shared<const reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
      opt);
}

using DualRows = std::vector<std::vector<interval::DualInterval>>;

void expect_dual_rows_identical(const DualRows& a, const DualRows& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t i = 0; i < a[s].size(); ++i) {
      const interval::DualInterval& x = a[s][i];
      const interval::DualInterval& y = b[s][i];
      EXPECT_EQ(bits(x.v.lo()), bits(y.v.lo()));
      EXPECT_EQ(bits(x.v.hi()), bits(y.v.hi()));
      EXPECT_EQ(x.nd, y.nd);
      for (std::size_t k = 0; k < interval::DualInterval::kMaxDirs; ++k) {
        EXPECT_EQ(bits(x.dlo[k]), bits(y.dlo[k])) << s << "," << i << "," << k;
        EXPECT_EQ(bits(x.dhi[k]), bits(y.dhi[k])) << s << "," << i << "," << k;
      }
    }
  }
}

TEST(PersistCache, GradRecordRoundTripIsBitExact) {
  const ode::Benchmark bench = ode::make_acc_benchmark();
  const nn::LinearController ctrl(linalg::Mat{{0.5, -1.2}});
  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive" : "fixed");
    const reach::TmGradient engine(*acc_linctrl_verifier(bench, adaptive));
    const reach::GradFlowpipe g = engine.compute(bench.spec.x0, ctrl);
    ASSERT_GT(g.step_sets_d.size(), 1u);
    const ser::Bytes bytes = to_bytes(g);
    ser::Reader r(bytes);
    reach::GradFlowpipe back;
    ASSERT_TRUE(ser::get(r, back, ctrl.param_count()));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(to_bytes(back), bytes);
    EXPECT_EQ(back.dirs, g.dirs);
    EXPECT_EQ(to_bytes(back.fp), to_bytes(g.fp));
    expect_dual_rows_identical(back.step_sets_d, g.step_sets_d);
    expect_dual_rows_identical(back.interval_hulls_d, g.interval_hulls_d);
  }
}

/// Overwrites the little-endian u64 at `off`.
void patch_u64(ser::Bytes& b, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[off + i] = std::uint8_t(v >> (8 * i));
}

TEST(PersistCache, CorruptGradRecordIsAMiss) {
  // A grad --learn whose first dual pass finds a corrupt record under its
  // key must recompute that pass, count a miss and give the bits of a
  // learn into an empty directory.
  const ode::Benchmark bench = ode::make_acc_benchmark();
  const auto tv = acc_linctrl_verifier(bench, false);
  const nn::LinearController start(linalg::Mat{{0.0, 0.0}});
  core::LearnerOptions opt;
  opt.grad = true;
  opt.max_iters = 3;
  opt.restarts = 1;

  struct Run {
    linalg::Vec params;
    std::vector<std::uint64_t> history;
    ser::Bytes pipe;
    reach::CacheStats stats;
  };
  const auto learn = [&](const fs::path& dir) {
    const auto cache = std::make_shared<reach::FlowpipeCache>(disk_config(dir));
    core::Learner learner(std::make_shared<reach::CachingVerifier>(tv, cache),
                          bench.spec, opt);
    nn::LinearController ctrl = start;
    const core::LearnResult res = learner.learn(ctrl);
    Run run{ctrl.params(), {}, to_bytes(res.final_flowpipe), res.cache_stats};
    for (const core::IterationRecord& rec : res.history) {
      run.history.push_back(rec.iter);
      run.history.push_back(std::bit_cast<std::uint64_t>(rec.geo->d_u));
      run.history.push_back(std::bit_cast<std::uint64_t>(rec.geo->d_g));
    }
    return run;
  };
  const Run ref = learn(cache_dir("grad_ref"));
  ASSERT_GT(ref.stats.misses, 0u);
  EXPECT_EQ(ref.stats.disk_hits, 0u);

  const reach::GradFlowpipe g =
      reach::TmGradient(*tv).compute(bench.spec.x0, start);
  const ser::Bytes good = to_bytes(g);
  // Offsets into the record body: fp, dirs, step-set row count, first
  // row's dimension, then its tangent columns.
  const std::size_t dirs_off = to_bytes(g.fp).size();
  const std::size_t rows_off = dirs_off + 8;
  const std::size_t dim_off = rows_off + 8;
  const std::uint64_t rows = g.step_sets_d.size();
  const auto patched = [&](std::size_t off, std::uint64_t v) {
    ser::Bytes b = good;
    patch_u64(b, off, v);
    return b;
  };
  const struct {
    const char* name;
    ser::Bytes body;
    bool flip;  ///< flip a tangent byte in the shard log after writing
  } cases[] = {
      {"flipped_byte", good, true},
      {"dirs_above_max", patched(dirs_off, 17), false},
      {"dirs_not_param_count", patched(dirs_off, 1), false},
      {"row_count_mismatch", patched(rows_off, rows + 1), false},
      {"dimension_mismatch", patched(dim_off, 3), false},
      {"truncated_tangents", ser::Bytes(good.begin(), good.end() - 8), false},
  };
  const reach::CachingVerifier keyer(tv);
  const auto key = keyer.key_for(bench.spec.x0, start, reach::kGradRecordKind);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const fs::path dir = cache_dir(std::string("grad_") + c.name);
    {
      reach::FlowpipeCache cache(disk_config(dir));
      cache.insert_record(key, c.body);
    }
    if (c.flip) flip_byte(shard_path(dir), fs::file_size(shard_path(dir)) - 5);
    const Run got = learn(dir);
    EXPECT_EQ(got.params[0], ref.params[0]);
    EXPECT_EQ(got.params[1], ref.params[1]);
    EXPECT_EQ(got.history, ref.history);
    EXPECT_EQ(got.pipe, ref.pipe);
    EXPECT_EQ(got.stats.misses, ref.stats.misses);
    EXPECT_EQ(got.stats.disk_hits, 0u);
  }
}

}  // namespace
}  // namespace dwv
