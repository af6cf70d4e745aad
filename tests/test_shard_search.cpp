// Sharded / checkpointable / anytime X_I search (DESIGN.md §16).
//
// The contract under test is BIT-identity: at any shard count, thread
// count, or batch width — in-process or split across shard runs and
// merged, interrupted and resumed (including SIGKILL of a live search
// process, exercised through the dwv CLI) — the search must reproduce the
// single-process InitialSetResult exactly, coverage bits included.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/search_shard.hpp"
#include "nn/controller.hpp"
#include "nn/serialize.hpp"
#include "ode/benchmarks.hpp"
#include "plantless_verifier.hpp"
#include "reach/cache.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/interval_reach.hpp"
#include "reach/linear_reach.hpp"
#include "reach/tm_flowpipe.hpp"
#include "reach/verifier_kinds.hpp"

namespace dwv::core {
namespace {

using linalg::Mat;

bool box_bits_eq(const geom::Box& a, const geom::Box& b) {
  if (a.dim() != b.dim()) return false;
  for (std::size_t d = 0; d < a.dim(); ++d) {
    if (std::bit_cast<std::uint64_t>(a[d].lo()) !=
            std::bit_cast<std::uint64_t>(b[d].lo()) ||
        std::bit_cast<std::uint64_t>(a[d].hi()) !=
            std::bit_cast<std::uint64_t>(b[d].hi())) {
      return false;
    }
  }
  return true;
}

void expect_bits_eq(const InitialSetResult& a, const InitialSetResult& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.coverage),
            std::bit_cast<std::uint64_t>(b.coverage));
  EXPECT_EQ(a.verifier_calls, b.verifier_calls);
  ASSERT_EQ(a.certified.size(), b.certified.size());
  ASSERT_EQ(a.rejected.size(), b.rejected.size());
  for (std::size_t i = 0; i < a.certified.size(); ++i) {
    EXPECT_TRUE(box_bits_eq(a.certified[i], b.certified[i])) << "cell " << i;
  }
  for (std::size_t i = 0; i < a.rejected.size(); ++i) {
    EXPECT_TRUE(box_bits_eq(a.rejected[i], b.rejected[i])) << "cell " << i;
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "shard_search_" + name;
}

// ACC with X0 enlarged 3x around its center: the good controller covers
// only the inner part, so the refinement tree mixes certified, rejected,
// and bisected cells at every level (depth 6: 9 certified / 18 rejected).
struct AccSearch {
  AccSearch() {
    bench = ode::make_acc_benchmark();
    spec = bench.spec;
    for (std::size_t d = 0; d < spec.x0.dim(); ++d) {
      const double c = 0.5 * (spec.x0[d].lo() + spec.x0[d].hi());
      const double h = 1.5 * (spec.x0[d].hi() - spec.x0[d].lo());
      spec.x0[d] = interval::Interval(c - h, c + h);
    }
    verifier = std::make_unique<reach::LinearVerifier>(bench.system, spec);
  }
  ode::Benchmark bench;
  ode::ReachAvoidSpec spec;
  std::unique_ptr<reach::LinearVerifier> verifier;
  nn::LinearController mid{Mat{{0.8, -2.75}}};
};

TEST(ShardSearch, ShardedMatchesSingleProcessAtAnyShardAndThreadCount) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 6;
  base.threads = 1;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);
  ASSERT_FALSE(single.certified.empty());
  ASSERT_FALSE(single.rejected.empty());

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      ShardSearchOptions opt;
      opt.base = base;
      opt.base.threads = threads;
      opt.shards = shards;
      const InitialSetResult res =
          search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_bits_eq(res, single);
      EXPECT_EQ(res.falsified, single.falsified);
    }
  }
}

TEST(ShardSearch, BatchWidthDoesNotChangeBits) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 5;
  base.threads = 2;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);
  for (const std::size_t batch : {1u, 3u, 0u}) {
    ShardSearchOptions opt;
    opt.base = base;
    opt.base.batch = batch;
    opt.shards = 2;
    const InitialSetResult res =
        search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
    SCOPED_TRACE("batch=" + std::to_string(batch));
    expect_bits_eq(res, single);
  }
}

TEST(ShardSearch, PrefixReuseAndSymbolicRemainderMatchSingleProcess) {
  const auto bench = ode::make_acc_benchmark();
  reach::TmReachOptions tm_opt;
  tm_opt.symbolic_remainder = true;
  tm_opt.sym_queue_size = 16;
  const reach::TmVerifier verifier(bench.system, bench.spec,
                                   std::make_shared<reach::LinearAbstraction>(),
                                   tm_opt);
  nn::LinearController mid(Mat{{0.45, -1.6}});
  InitialSetOptions base;
  base.max_depth = 4;
  base.threads = 2;
  base.reuse_parent_prefix = true;
  const InitialSetResult single =
      search_initial_set(verifier, bench.spec, mid, base);
  ShardSearchOptions opt;
  opt.base = base;
  opt.shards = 2;
  opt.prefix_grain = 2;
  const InitialSetResult res =
      search_initial_set_sharded(verifier, bench.spec, mid, opt);
  expect_bits_eq(res, single);
}

TEST(ShardSearch, ShardRunsSerializeAndMergeToSingleProcessBits) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 6;
  base.threads = 2;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);

  const std::size_t kShards = 3;
  std::vector<ShardResult> parts;
  for (std::size_t i = 0; i < kShards; ++i) {
    ShardSearchOptions opt;
    opt.base = base;
    opt.shards = kShards;
    opt.shard_index = i;
    const ShardResult sr =
        search_initial_set_shard(*s.verifier, s.spec, s.mid, opt);
    EXPECT_TRUE(sr.complete);
    EXPECT_EQ(sr.includes_prefix, i == 0);

    // Round-trip through the file format: load(save(x)) re-serializes to
    // the same bytes, and the loaded part merges like the in-memory one.
    const std::string path = temp_path("part" + std::to_string(i) + ".bin");
    save_shard_result_file(path, sr);
    const ShardResult loaded = load_shard_result_file(path);
    reach::ser::Writer wa, wb;
    put(wa, sr);
    put(wb, loaded);
    EXPECT_EQ(wa.bytes(), wb.bytes());
    std::remove(path.c_str());
    parts.push_back(loaded);
  }
  const InitialSetResult merged = merge_shard_results(s.spec, parts);
  expect_bits_eq(merged, single);
  EXPECT_EQ(merged.falsified, single.falsified);
}

TEST(ShardSearch, MergeRejectsInconsistentParts) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 3;
  ShardSearchOptions opt;
  opt.base = base;
  opt.shards = 2;
  opt.shard_index = 0;
  const ShardResult s0 =
      search_initial_set_shard(*s.verifier, s.spec, s.mid, opt);
  opt.shard_index = 1;
  const ShardResult s1 =
      search_initial_set_shard(*s.verifier, s.spec, s.mid, opt);

  EXPECT_NO_THROW(merge_shard_results(s.spec, {s0, s1}));
  // Wrong part count, duplicate index, foreign fingerprint, incomplete.
  EXPECT_THROW(merge_shard_results(s.spec, {s0}), std::runtime_error);
  EXPECT_THROW(merge_shard_results(s.spec, {s0, s0}),
               std::runtime_error);
  ShardResult alien = s1;
  alien.fingerprint ^= 1;
  EXPECT_THROW(merge_shard_results(s.spec, {s0, alien}),
               std::runtime_error);
  ShardResult partial = s1;
  partial.complete = false;
  EXPECT_THROW(merge_shard_results(s.spec, {s0, partial}),
               std::runtime_error);
}

TEST(ShardSearch, InitialSetResultRoundTripsByteIdentically) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 5;
  const InitialSetResult res =
      search_initial_set(*s.verifier, s.spec, s.mid, base);

  reach::ser::Writer w;
  put(w, res);
  reach::ser::Reader r(w.bytes());
  InitialSetResult back;
  ASSERT_TRUE(get(r, back));
  EXPECT_EQ(r.remaining(), 0u);
  expect_bits_eq(back, res);
  reach::ser::Writer w2;
  put(w2, back);
  EXPECT_EQ(w.bytes(), w2.bytes());

  // Truncated payloads must fail get(), never fabricate a result.
  for (const std::size_t cut : {1u, 8u, 17u}) {
    ASSERT_LT(cut, w.bytes().size());
    reach::ser::Reader rt(w.bytes().data(), w.bytes().size() - cut);
    InitialSetResult junk;
    EXPECT_FALSE(get(rt, junk)) << "cut " << cut;
  }

  const std::string path = temp_path("result.bin");
  save_initial_set_result_file(path, 42, res);
  std::uint64_t fp = 0;
  const InitialSetResult from_file = load_initial_set_result_file(path, &fp);
  EXPECT_EQ(fp, 42u);
  expect_bits_eq(from_file, res);
  std::remove(path.c_str());
}

TEST(ShardSearch, FingerprintTracksResultAffectingConfigOnly) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 5;
  base.threads = 1;
  const std::uint64_t a =
      xi_search_fingerprint(*s.verifier, s.spec, s.mid, base);
  base.threads = 8;
  base.batch = 3;
  EXPECT_EQ(a, xi_search_fingerprint(*s.verifier, s.spec, s.mid, base));
  base.max_depth = 6;
  EXPECT_NE(a, xi_search_fingerprint(*s.verifier, s.spec, s.mid, base));
  base.max_depth = 5;
  nn::LinearController other(Mat{{0.46, -1.6}});
  EXPECT_NE(a, xi_search_fingerprint(*s.verifier, s.spec, other, base));
  // A caching wrapper never changes bits, so it shares the fingerprint.
  const reach::CachingVerifier cached(
      std::make_shared<reach::LinearVerifier>(s.bench.system, s.spec),
      reach::FlowpipeCache::Config{});
  EXPECT_EQ(a, xi_search_fingerprint(cached, s.spec, s.mid, base));
}

TEST(ShardSearch, AnytimeProgressIsMonotoneAndCancelable) {
  AccSearch s;
  ShardSearchOptions opt;
  opt.base.max_depth = 6;
  opt.base.threads = 2;
  opt.shards = 2;
  opt.checkpoint_every = 8;
  std::vector<ShardSearchProgress> seen;
  opt.progress = [&seen](const ShardSearchProgress& p) {
    seen.push_back(p);
    return true;
  };
  const InitialSetResult res =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  ASSERT_GE(seen.size(), 2u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].coverage, seen[i - 1].coverage);
    EXPECT_GE(seen[i].verifier_calls, seen[i - 1].verifier_calls);
    EXPECT_EQ(seen[i].rounds, seen[i - 1].rounds + 1);
  }
  EXPECT_EQ(seen.back().pending_cells, 0u);
  EXPECT_EQ(seen.back().certified_cells, res.certified.size());
  EXPECT_EQ(seen.back().rejected_cells, res.rejected.size());
  EXPECT_EQ(seen.back().verifier_calls, res.verifier_calls);

  // Cancelling early yields a partial-but-sound inner approximation.
  std::size_t rounds = 0;
  opt.progress = [&rounds](const ShardSearchProgress&) {
    return ++rounds < 2;
  };
  const InitialSetResult partial =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  EXPECT_LE(partial.coverage, res.coverage + 1e-12);
  EXPECT_LE(partial.verifier_calls, res.verifier_calls);
}

TEST(ShardSearch, CheckpointResumeReproducesUninterruptedBits) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 6;
  base.threads = 2;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);

  const std::string ck = temp_path("resume.ck");
  std::remove(ck.c_str());
  ShardSearchOptions opt;
  opt.base = base;
  opt.shards = 2;
  opt.checkpoint_file = ck;

  // Cancel after the first round with a one-cell budget; the checkpoint
  // keeps the pending cells. The cancel point does not depend on
  // scheduling: the deterministic prefix (at most 15 calls to reach 16
  // frontier cells) plus one batch group (the budget's only overshoot)
  // stays far below the full tree.
  opt.checkpoint_every = 1;
  opt.progress = [](const ShardSearchProgress&) { return false; };
  const InitialSetResult partial =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  EXPECT_LT(partial.verifier_calls, single.verifier_calls);

  // Resume to completion, at a different cadence: bit-identical to the
  // uninterrupted run, and cells already decided before the cancel are not
  // re-verified (equal verifier_calls).
  opt.checkpoint_every = 8;
  opt.progress = nullptr;
  const InitialSetResult resumed =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  expect_bits_eq(resumed, single);
  EXPECT_EQ(resumed.falsified, single.falsified);

  // Resuming a completed checkpoint is a no-op with the same bits.
  const InitialSetResult again =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  expect_bits_eq(again, single);
  std::remove(ck.c_str());
}

TEST(ShardSearch, CheckpointTornTailAndGarbageAreTruncatedOnResume) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 6;
  base.threads = 1;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);

  const std::string ck = temp_path("torn.ck");
  std::remove(ck.c_str());
  ShardSearchOptions opt;
  opt.base = base;
  opt.checkpoint_file = ck;
  opt.checkpoint_every = 8;
  std::size_t rounds = 0;
  opt.progress = [&rounds](const ShardSearchProgress&) {
    return ++rounds < 3;
  };
  (void)search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);

  // A kill -9 mid-append leaves a half-written snapshot: simulate by
  // appending garbage that cannot checksum, then by truncating into the
  // last record. Both must resume from the last intact snapshot.
  {
    std::ofstream f(ck, std::ios::binary | std::ios::app);
    f.write("\x13garbage-torn-tail\x37", 19);
  }
  opt.progress = nullptr;
  const InitialSetResult resumed =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  expect_bits_eq(resumed, single);

  struct stat st{};
  ASSERT_EQ(::stat(ck.c_str(), &st), 0);
  ASSERT_EQ(::truncate(ck.c_str(), st.st_size - 7), 0);
  const InitialSetResult after_torn =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  expect_bits_eq(after_torn, single);
  std::remove(ck.c_str());
}

TEST(ShardSearch, CheckpointOfDifferentConfigurationIsRejected) {
  AccSearch s;
  const std::string ck = temp_path("mismatch.ck");
  std::remove(ck.c_str());
  ShardSearchOptions opt;
  opt.base.max_depth = 4;
  opt.checkpoint_file = ck;
  (void)search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  opt.base.max_depth = 5;  // different fingerprint
  EXPECT_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
      std::runtime_error);
  opt.base.max_depth = 4;
  opt.shards = 3;  // same fingerprint, different shard layout
  EXPECT_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
      std::runtime_error);
  std::remove(ck.c_str());
  // Not-a-checkpoint files are rejected, not clobbered.
  {
    std::ofstream f(ck, std::ios::binary);
    f << "this is not a checkpoint file, do not overwrite me";
  }
  opt.shards = 1;
  EXPECT_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
      std::runtime_error);
  std::remove(ck.c_str());
}

// Digest of the search lists alone: the put() bytes minus the trailing
// verifier_calls, so it pins the certified and rejected boxes and the
// coverage bits but not how many verifier calls produced them.
std::uint64_t list_digest(const InitialSetResult& r) {
  reach::ser::Writer w;
  put(w, r);
  return reach::ser::checksum64(w.bytes().data(), w.bytes().size() - 8);
}

// The oscillator search of the CLI (`dwv search oscillator --verifier
// polar`) on the bench_e2e controllers, at depth 7.
struct OscSearch {
  explicit OscSearch(const std::string& ctrl_file)
      : bench(ode::make_oscillator_benchmark()),
        verifier(reach::make_verifier("polar", bench.system, bench.spec)),
        ctrl(nn::load_controller_file(std::string(DWV_SOURCE_DIR) +
                                      "/bench_e2e/data/" + ctrl_file)) {}
  ode::Benchmark bench;
  reach::VerifierPtr verifier;
  nn::ControllerPtr ctrl;
};

TEST(ShardSearch, ListDigestsPinned) {
  InitialSetOptions base;
  base.max_depth = 7;
  base.threads = 2;
  const struct {
    const char* file;
    std::uint64_t golden;
  } osc[] = {{"osc_seed3_x1.06.ctrl", 0xbbc378abc1fe4506ULL},
             {"osc_seed2_x0.79.ctrl", 0x489bae051d870809ULL}};
  for (const auto& c : osc) {
    const OscSearch o(c.file);
    const std::uint64_t got = list_digest(
        search_initial_set(*o.verifier, o.bench.spec, *o.ctrl, base));
    EXPECT_EQ(got, c.golden) << c.file << ": 0x" << std::hex << got << "ULL";
  }

  // The mixed ACC tree through both lane-batched verifier kinds.
  AccSearch s;
  base.max_depth = 8;
  const reach::IntervalVerifier interval(s.bench.system, s.spec);
  const struct {
    const reach::Verifier* verifier;
    std::uint64_t golden;
  } acc[] = {{s.verifier.get(), 0x6f97bd006c9daffeULL},
             {&interval, 0x23d89da771536231ULL}};
  for (const auto& c : acc) {
    const std::uint64_t got =
        list_digest(search_initial_set(*c.verifier, s.spec, s.mid, base));
    EXPECT_EQ(got, c.golden)
        << c.verifier->name() << ": 0x" << std::hex << got << "ULL";
  }
}

// Falsify before verify changes how many cells reach the verifier, never
// which cells are certified or rejected: each configuration of
// ListDigestsPinned gives the same list bytes through a plant-less
// wrapper, which sends every cell to the verifier, and makes fewer calls
// when the search may prune.
TEST(ShardSearch, FalsifyFirstKeepsListsAndSavesCalls) {
  const auto list_bytes = [](const InitialSetResult& r) {
    reach::ser::Writer w;
    put(w, r);
    reach::ser::Bytes b = w.take();
    b.resize(b.size() - 8);  // drop verifier_calls
    return b;
  };
  const auto compare = [&](const reach::Verifier& v,
                           const ode::ReachAvoidSpec& spec,
                           const nn::Controller& ctrl,
                           const InitialSetOptions& base) {
    const InitialSetResult pruned = search_initial_set(v, spec, ctrl, base);
    const InitialSetResult full =
        search_initial_set(test::PlantlessVerifier(v), spec, ctrl, base);
    EXPECT_EQ(list_bytes(pruned), list_bytes(full));
    EXPECT_LT(pruned.verifier_calls, full.verifier_calls);
    EXPECT_GT(pruned.falsified, 0u);
    EXPECT_LE(pruned.falsified, pruned.rejected.size());
    EXPECT_EQ(full.falsified, 0u);
  };
  InitialSetOptions base;
  base.max_depth = 7;
  base.threads = 2;
  for (const char* file : {"osc_seed3_x1.06.ctrl", "osc_seed2_x0.79.ctrl"}) {
    SCOPED_TRACE(file);
    const OscSearch o(file);
    compare(*o.verifier, o.bench.spec, *o.ctrl, base);
  }
  AccSearch s;
  base.max_depth = 8;
  const reach::IntervalVerifier interval(s.bench.system, s.spec);
  for (const reach::Verifier* v :
       {static_cast<const reach::Verifier*>(s.verifier.get()),
        static_cast<const reach::Verifier*>(&interval)}) {
    SCOPED_TRACE(v->name());
    compare(*v, s.spec, s.mid, base);
  }
}

// Format version 2 gave terminal records a falsified flag. A file that
// says version 1 — shard, result or checkpoint — must fail to load rather
// than be read as a search without falsified cells.
TEST(ShardSearch, VersionOneFilesFailToLoad) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 4;
  base.threads = 1;
  // Every file starts with an 8-byte magic and a u32 little-endian version.
  const auto set_version_one = [](const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekp(8);
    const char one[4] = {1, 0, 0, 0};
    f.write(one, 4);
  };

  ShardSearchOptions opt;
  opt.base = base;
  opt.shards = 2;
  opt.shard_index = 0;
  const std::string shard = temp_path("v1_shard.bin");
  save_shard_result_file(
      shard, search_initial_set_shard(*s.verifier, s.spec, s.mid, opt));
  EXPECT_NO_THROW(load_shard_result_file(shard));
  set_version_one(shard);
  EXPECT_THROW(load_shard_result_file(shard), std::runtime_error);

  const std::string result = temp_path("v1_result.bin");
  save_initial_set_result_file(
      result, 7, search_initial_set(*s.verifier, s.spec, s.mid, base));
  EXPECT_NO_THROW(load_initial_set_result_file(result, nullptr));
  set_version_one(result);
  EXPECT_THROW(load_initial_set_result_file(result, nullptr),
               std::runtime_error);

  const std::string ck = temp_path("v1.ck");
  std::remove(ck.c_str());
  opt.shard_index = ShardSearchOptions::kAllShards;
  opt.checkpoint_file = ck;
  const InitialSetResult full =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  EXPECT_FALSE(full.certified.empty());
  set_version_one(ck);
  EXPECT_THROW(search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
               std::runtime_error);
  for (const std::string& p : {shard, result, ck}) std::remove(p.c_str());
}

TEST(ShardSearch, MaxDepthPastSequenceBoundThrows) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = kMaxSearchDepth + 1;
  EXPECT_THROW(search_initial_set(*s.verifier, s.spec, s.mid, base),
               std::invalid_argument);
  ShardSearchOptions opt;
  opt.base = base;
  EXPECT_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
      std::invalid_argument);
  opt.base.max_depth = kMaxSearchDepth;  // the bound itself is legal
  opt.base.threads = 1;
  opt.shards = 2;
  ShardSearchOptions tiny = opt;
  tiny.base.max_depth = 2;
  EXPECT_NO_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, tiny));
}

TEST(ShardSearch, DiskSaltMixSeparatesShardCacheLogs) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "shard_salt_mix";
  fs::remove_all(dir);
  reach::FlowpipeCache::Config cfg;
  cfg.dir = dir.string();
  cfg.disk_salt = 0x1234;
  cfg.disk_shards = 1;
  const auto count_files = [&dir] {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      (void)e;
      ++n;
    }
    return n;
  };
  {
    reach::FlowpipeCache c0(cfg);
    EXPECT_TRUE(c0.has_disk_tier());
  }
  const std::size_t base_files = count_files();
  EXPECT_GE(base_files, 1u);
  {
    cfg.disk_salt_mix = 0x9e37;
    reach::FlowpipeCache c1(cfg);  // same dir, distinct salted log files
    EXPECT_TRUE(c1.has_disk_tier());
  }
  EXPECT_EQ(count_files(), 2 * base_files);
  fs::remove_all(dir);
}

// --- SIGKILL crash-resume drill through the dwv CLI ---------------------
// Runs a depth-9 checkpointed search in a subprocess, SIGKILLs it
// mid-frontier (first snapshot on disk = the search is live), resumes
// with the identical command line, and compares result FILE BYTES against
// an uninterrupted run — the end-to-end kill -9 contract of DESIGN.md §16.
#ifdef DWV_CLI_PATH

pid_t spawn_cli(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  static const std::string cli = DWV_CLI_PATH;
  argv.push_back(const_cast<char*>(cli.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) {
      ::dup2(null, 1);
      ::dup2(null, 2);
    }
    ::execv(cli.c_str(), argv.data());
    ::_exit(127);
  }
  return pid;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

TEST(ShardSearch, SigkillMidSearchResumesToIdenticalResultBytes) {
  if (::access(DWV_CLI_PATH, X_OK) != 0) {
    GTEST_SKIP() << "dwv CLI not built at " << DWV_CLI_PATH;
  }
  const std::string ref = temp_path("kill_ref.bin");
  const std::string out = temp_path("kill_out.bin");
  const std::string ck = temp_path("kill.ck");
  std::remove(ref.c_str());
  std::remove(out.c_str());
  std::remove(ck.c_str());

  const std::vector<std::string> common = {
      "search", "acc",       "--depth",            "9", "--threads", "2",
      "--shards", "2",       "--checkpoint-every", "8"};
  auto with = [&common](std::initializer_list<std::string> extra) {
    std::vector<std::string> v = common;
    v.insert(v.end(), extra);
    return v;
  };

  // Uninterrupted reference run (no checkpoint).
  pid_t pid = spawn_cli(with({"--out", ref}));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // Checkpointed run, SIGKILLed as soon as the first snapshot lands.
  pid = spawn_cli(with({"--checkpoint", ck, "--out", out}));
  bool killed = false;
  for (int spin = 0; spin < 20000; ++spin) {
    struct stat st{};
    if (::stat(ck.c_str(), &st) == 0 && st.st_size > 28) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    if (::waitpid(pid, &status, WNOHANG) == pid) break;  // finished already
    ::usleep(100);
  }
  if (killed) {
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    EXPECT_NE(::access(out.c_str(), F_OK), 0)
        << "killed run must not have written a result file";
  }

  // Resume with the identical command line; must finish and write the
  // exact reference bytes.
  pid = spawn_cli(with({"--checkpoint", ck, "--out", out}));
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  const std::vector<char> a = slurp(ref);
  const std::vector<char> b = slurp(out);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == b) << "resumed result file differs from uninterrupted run";
  std::remove(ref.c_str());
  std::remove(out.c_str());
  std::remove(ck.c_str());
}

#endif  // DWV_CLI_PATH

}  // namespace
}  // namespace dwv::core
