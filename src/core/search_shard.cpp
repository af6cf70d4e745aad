#include "core/search_shard.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/falsify.hpp"
#include "core/verdict.hpp"
#include "parallel/pool.hpp"
#include "parallel/work_steal.hpp"
#include "reach/batch.hpp"
#include "reach/cache.hpp"

namespace dwv::core {

namespace {

namespace ser = reach::ser;

// --- File format constants ----------------------------------------------
// Shard result file:  "DWVXISH1" magic, version, reserved, one framed
// (len + checksum64 + payload) ShardResult record.
// Search result file: "DWVXIRS1" magic, same framing, payload =
// fingerprint + InitialSetResult.
// Checkpoint file:    "DWVCKPT1" magic + configuration-binding header,
// then framed full-state snapshots appended at round boundaries; the LAST
// intact snapshot wins and any torn tail is truncated on load.
// Version 2 widened each terminal record's flag byte from certified (0/1)
// to its CellVerdict; version 3 dropped the per-cell symbolic flowpipe
// prefix from checkpoints (and the prefix-reuse option from the
// fingerprint). Files of older versions fail to load.
constexpr std::uint64_t kShardMagic = 0x3148534958565744ull;   // DWVXISH1
constexpr std::uint64_t kResultMagic = 0x3153524958565744ull;  // DWVXIRS1
constexpr std::uint64_t kCkptMagic = 0x3154504b43565744ull;    // DWVCKPT1
constexpr std::uint32_t kFileVersion = 3;
constexpr std::uint32_t kCkptAllShards = 0xffffffffu;
// magic + version + shards + fingerprint + shard_index.
constexpr std::size_t kCkptHeaderSize = 8 + 4 + 4 + 8 + 4;
constexpr std::size_t kFrameSize = 16;  // len:u64 + checksum:u64
// The largest valid record flag byte.
constexpr std::uint8_t kMaxVerdict =
    static_cast<std::uint8_t>(CellVerdict::kFalsified);

// An undecided frontier cell. `seq` is the heap sequence number (root 1,
// children 2s and 2s+1).
struct PendingCell {
  geom::Box box;
  std::size_t depth = 0;
  std::uint64_t seq = 0;
};

// The complete resumable search state: terminal records so far + the
// undecided frontier. The anytime counters are derived (recomputed on
// checkpoint load), kept incrementally so the progress coverage is a
// running sum — monotone within and across resumed runs.
struct EngineState {
  std::vector<ShardRecord> records;
  std::vector<PendingCell> pending;
  std::uint64_t calls = 0;
  double certified_volume = 0.0;
  std::size_t certified_cells = 0;
  std::size_t rejected_cells = 0;

  void note(const ShardRecord& r) {
    if (r.verdict == CellVerdict::kCertified) {
      certified_volume += r.box.volume();
      ++certified_cells;
    } else {
      ++rejected_cells;
    }
  }
};

// --- Snapshot payload ---------------------------------------------------

void put_state(ser::Writer& w, const EngineState& st) {
  w.u64(st.calls);
  w.u64(st.records.size());
  for (const ShardRecord& r : st.records) {
    w.u64(r.seq);
    w.u8(static_cast<std::uint8_t>(r.verdict));
    ser::put(w, r.box);
  }
  w.u64(st.pending.size());
  for (const PendingCell& c : st.pending) {
    w.u64(c.seq);
    w.u64(c.depth);
    ser::put(w, c.box);
  }
}

bool get_state(ser::Reader& r, EngineState& out) {
  out = EngineState{};
  out.calls = r.u64();
  std::uint64_t n = r.count(8 + 1 + 8);  // seq + flag + minimal box
  if (!r.ok()) return false;
  out.records.resize(static_cast<std::size_t>(n));
  for (ShardRecord& rec : out.records) {
    rec.seq = r.u64();
    const std::uint8_t flag = r.u8();
    if (!r.ok() || rec.seq == 0 || flag > kMaxVerdict) return false;
    rec.verdict = static_cast<CellVerdict>(flag);
    if (!ser::get(r, rec.box)) return false;
    out.note(rec);
  }
  n = r.count(8 + 8 + 8);  // seq + depth + minimal box
  if (!r.ok()) return false;
  out.pending.resize(static_cast<std::size_t>(n));
  for (PendingCell& c : out.pending) {
    c.seq = r.u64();
    c.depth = static_cast<std::size_t>(r.u64());
    if (!r.ok() || c.seq == 0 || c.depth > kMaxSearchDepth) return false;
    if (!ser::get(r, c.box)) return false;
  }
  return r.ok() && r.remaining() == 0;
}

// --- POSIX helpers ------------------------------------------------------

void write_all(int fd, const std::uint8_t* data, std::size_t n,
               const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      throw std::runtime_error("error: short write to checkpoint file " +
                               path);
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

ser::Bytes read_whole_file(const std::string& path, bool* exists) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (exists != nullptr) {
      *exists = false;
      return {};
    }
    throw std::runtime_error("cannot open " + path);
  }
  if (exists != nullptr) *exists = true;
  ser::Bytes data;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    data.insert(data.end(), buf, buf + got);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw std::runtime_error("cannot read " + path);
  return data;
}

void write_whole_file(const std::string& path, const ser::Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot create " + path);
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("cannot write " + path);
  }
}

// --- Checkpoint file ----------------------------------------------------
// Append-only: a fixed header binding the file to one search configuration
// (fingerprint + shard layout), then framed snapshots. Loading scans
// forward, keeps the LAST snapshot whose length, checksum, and payload all
// validate, and truncates everything after it (the torn tail a kill -9
// mid-append leaves behind). Appends are a single write(), so an
// interrupted append can only damage the tail, never an older snapshot.
class CheckpointFile {
 public:
  CheckpointFile(const std::string& path, std::uint64_t fingerprint,
                 std::uint32_t shards, std::uint32_t shard_index)
      : path_(path) {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      throw std::runtime_error("cannot open checkpoint file " + path);
    }
    const ser::Bytes data = read_whole_file(path, nullptr);
    if (data.empty()) {
      ser::Writer w;
      w.u64(kCkptMagic);
      w.u32(kFileVersion);
      w.u32(shards);
      w.u64(fingerprint);
      w.u32(shard_index);
      write_all(fd_, w.bytes().data(), w.bytes().size(), path_);
      return;
    }
    if (data.size() < kCkptHeaderSize) {
      throw std::runtime_error("checkpoint file " + path +
                               " is truncated mid-header; delete it to "
                               "restart the search");
    }
    ser::Reader h(data.data(), kCkptHeaderSize);
    if (h.u64() != kCkptMagic || h.u32() != kFileVersion) {
      throw std::runtime_error(path + " is not a dwv checkpoint file");
    }
    if (h.u32() != shards || h.u64() != fingerprint ||
        h.u32() != shard_index) {
      throw std::runtime_error(
          "checkpoint file " + path +
          " was written by a different search configuration (verifier, "
          "controller, spec, depth, or shard layout); delete it to restart");
    }
    // Scan to the last intact snapshot; truncate anything after it.
    std::size_t pos = kCkptHeaderSize;
    std::size_t valid_end = kCkptHeaderSize;
    while (data.size() - pos >= kFrameSize) {
      ser::Reader fr(data.data() + pos, kFrameSize);
      const std::uint64_t len = fr.u64();
      const std::uint64_t sum = fr.u64();
      if (len > data.size() - pos - kFrameSize) break;
      const std::uint8_t* payload = data.data() + pos + kFrameSize;
      if (ser::checksum64(payload, static_cast<std::size_t>(len)) != sum) {
        break;
      }
      ser::Reader pr(payload, static_cast<std::size_t>(len));
      EngineState cand;
      if (!get_state(pr, cand)) break;
      state_ = std::move(cand);
      loaded_ = true;
      pos += kFrameSize + static_cast<std::size_t>(len);
      valid_end = pos;
    }
    if (valid_end != data.size()) {
      if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
        throw std::runtime_error("cannot truncate torn checkpoint tail of " +
                                 path_);
      }
    }
  }

  ~CheckpointFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  CheckpointFile(const CheckpointFile&) = delete;
  CheckpointFile& operator=(const CheckpointFile&) = delete;

  bool has_snapshot() const { return loaded_; }
  EngineState take_state() { return std::move(state_); }

  void append(const EngineState& st) {
    ser::Writer pw;
    put_state(pw, st);
    const ser::Bytes payload = pw.take();
    ser::Writer w;
    w.u64(payload.size());
    w.u64(ser::checksum64(payload.data(), payload.size()));
    ser::Bytes frame = w.take();
    frame.insert(frame.end(), payload.begin(), payload.end());
    write_all(fd_, frame.data(), frame.size(), path_);
  }

 private:
  std::string path_;
  int fd_ = -1;
  bool loaded_ = false;
  EngineState state_;
};

// --- Engine -------------------------------------------------------------

// Algorithm 2's verdict on one verified cell: a valid pipe that provably
// reaches the goal (and stays safe, when asked) certifies it.
bool certifies(const reach::Flowpipe& fp, const ode::ReachAvoidSpec& spec,
               bool check_safety) {
  const FlowpipeFacts facts = analyze_flowpipe(fp, spec);
  return fp.valid && (!check_safety || facts.safe_certified) &&
         facts.goal_certified;
}

// Settles one cell: a terminal record (certified, or rejected at max
// depth) goes to `record`; otherwise its two bisection children (heap
// sequence numbers 2s and 2s+1) go to `spawn`.
template <class Record, class Spawn>
void decide(PendingCell&& cell, CellVerdict verdict, std::size_t max_depth,
            const Record& record, const Spawn& spawn) {
  if (verdict == CellVerdict::kCertified || cell.depth >= max_depth) {
    record(ShardRecord{cell.seq, std::move(cell.box), verdict});
    return;
  }
  auto [lo, hi] = cell.box.bisect();
  spawn(PendingCell{std::move(lo), cell.depth + 1, 2 * cell.seq});
  spawn(PendingCell{std::move(hi), cell.depth + 1, 2 * cell.seq + 1});
}

// Deterministic level-synchronous expansion of the shared tree prefix:
// every process expands the same levels from the root, so the frontier at
// the stop point — and therefore the round-robin shard partition of it —
// is a pure function of the search configuration, independent of
// scheduling.
void expand_level(const reach::Verifier& verifier,
                  const ode::ReachAvoidSpec& spec, const nn::Controller& ctrl,
                  const ShardSearchOptions& opt, EngineState& st) {
  const std::size_t n = st.pending.size();
  const std::size_t per_shard = parallel::resolve_threads(opt.base.threads);
  const std::size_t threads =
      opt.shard_index == ShardSearchOptions::kAllShards
          ? per_shard * std::max<std::size_t>(opt.shards, 1)
          : per_shard;
  std::vector<CellVerdict> verdicts(n, CellVerdict::kFalsified);
  parallel::parallel_for(threads, n, [&](std::size_t i) {
    const geom::Box& box = st.pending[i].box;
    if (centre_rollout_fails(verifier, spec, ctrl, box,
                             opt.base.check_safety)) {
      return;
    }
    const reach::Flowpipe fp = verifier.compute(box, ctrl);
    verdicts[i] = certifies(fp, spec, opt.base.check_safety)
                      ? CellVerdict::kCertified
                      : CellVerdict::kUnknown;
  });
  st.calls += static_cast<std::uint64_t>(std::count_if(
      verdicts.begin(), verdicts.end(),
      [](CellVerdict v) { return v != CellVerdict::kFalsified; }));

  std::vector<PendingCell> next;
  const auto record = [&](ShardRecord&& r) {
    st.records.push_back(std::move(r));
    st.note(st.records.back());
  };
  const auto spawn = [&](PendingCell&& c) { next.push_back(std::move(c)); };
  for (std::size_t i = 0; i < n; ++i) {
    decide(std::move(st.pending[i]), verdicts[i], opt.base.max_depth, record,
           spawn);
  }
  st.pending = std::move(next);
}

struct FrontierOut {
  std::vector<ShardRecord> records;
  std::vector<PendingCell> leftovers;
  std::uint64_t calls = 0;
};

// One shard's work-stealing frontier run, bounded by the round budget.
// Each worker pops up to a batch width of cells, verifies them as one
// group, and certifies, bisects (spawning children 2s and 2s+1) or
// rejects each; records are merged by heap sequence number afterwards, so
// scheduling never shows in the result. Once `budget` cells have been
// claimed in this round, every further popped cell goes, unverified, to
// the leftover frontier, so the pool drains to a quiescent point fit for a
// snapshot. Which cells land in which round is scheduling-dependent; the
// terminal records are not.
void run_frontier(const reach::Verifier& verifier,
                  const ode::ReachAvoidSpec& spec, const nn::Controller& ctrl,
                  const InitialSetOptions& base, std::vector<PendingCell> roots,
                  std::atomic<std::size_t>& budget, std::size_t budget_limit,
                  FrontierOut& out) {
  const std::size_t threads = parallel::resolve_threads(base.threads);
  const reach::BatchVerifier bv(&verifier, base.batch);
  const std::size_t width = bv.batch();

  std::vector<std::vector<ShardRecord>> records(threads);
  std::vector<std::vector<PendingCell>> leftovers(threads);
  std::atomic<std::size_t> calls{0};

  const auto body = [&](PendingCell* first,
                        parallel::WorkStealContext<PendingCell*>& ctx) {
    if (budget.fetch_add(1, std::memory_order_relaxed) >= budget_limit) {
      leftovers[ctx.worker()].push_back(std::move(*first));
      delete first;
      return;
    }
    std::vector<PendingCell*> group{first};
    PendingCell* extra = nullptr;
    while (group.size() < width && ctx.try_pop(extra)) {
      // Extras ride the group past the budget check (overshoot of at most
      // one batch width per round — the cadence is approximate by design).
      budget.fetch_add(1, std::memory_order_relaxed);
      group.push_back(extra);
    }

    // Falsify before verify: a cell whose centre rollout fails the spec can
    // never be certified, so it skips the verifier. `verify` holds the group
    // positions of the cells that go to it.
    std::vector<std::size_t> verify;
    std::vector<reach::BatchJob> jobs;
    for (std::size_t g = 0; g < group.size(); ++g) {
      if (!centre_rollout_fails(verifier, spec, ctrl, group[g]->box,
                                base.check_safety)) {
        verify.push_back(g);
        jobs.push_back({group[g]->box, &ctrl});
      }
    }
    const std::vector<reach::Flowpipe> fps = bv.compute(jobs);
    std::vector<CellVerdict> verdicts(group.size(), CellVerdict::kFalsified);
    for (std::size_t j = 0; j < verify.size(); ++j) {
      verdicts[verify[j]] = certifies(fps[j], spec, base.check_safety)
                                ? CellVerdict::kCertified
                                : CellVerdict::kUnknown;
    }

    const auto record = [&](ShardRecord&& r) {
      records[ctx.worker()].push_back(std::move(r));
    };
    const auto spawn = [&](PendingCell&& c) {
      ctx.spawn(new PendingCell(std::move(c)));
    };
    for (std::size_t g = 0; g < group.size(); ++g) {
      decide(std::move(*group[g]), verdicts[g], base.max_depth, record, spawn);
      delete group[g];
    }
    calls.fetch_add(verify.size(), std::memory_order_relaxed);
  };

  std::vector<PendingCell*> rootp;
  rootp.reserve(roots.size());
  for (PendingCell& c : roots) rootp.push_back(new PendingCell(std::move(c)));
  parallel::work_steal_run(threads, rootp, body);

  for (auto& r : records) {
    out.records.insert(out.records.end(), std::make_move_iterator(r.begin()),
                       std::make_move_iterator(r.end()));
  }
  for (auto& l : leftovers) {
    out.leftovers.insert(out.leftovers.end(),
                         std::make_move_iterator(l.begin()),
                         std::make_move_iterator(l.end()));
  }
  out.calls = calls.load(std::memory_order_relaxed);
}

// One round: deal the frontier round-robin to the shard workers (each a
// std::thread driving its own work-stealing pool), run them against a
// shared cell budget, and fold records and leftovers back into the state.
void run_round(const reach::Verifier& verifier, const ode::ReachAvoidSpec& spec,
               const nn::Controller& ctrl, const ShardSearchOptions& opt,
               EngineState& st, std::size_t budget_limit) {
  const std::size_t nworkers =
      opt.shard_index == ShardSearchOptions::kAllShards
          ? std::max<std::size_t>(opt.shards, 1)
          : 1;
  std::vector<std::vector<PendingCell>> deal(nworkers);
  for (std::size_t i = 0; i < st.pending.size(); ++i) {
    deal[i % nworkers].push_back(std::move(st.pending[i]));
  }
  st.pending.clear();

  std::atomic<std::size_t> budget{0};
  std::vector<FrontierOut> outs(nworkers);
  const auto run_one = [&](std::size_t w) {
    run_frontier(verifier, spec, ctrl, opt.base, std::move(deal[w]), budget,
                 budget_limit, outs[w]);
  };
  std::vector<std::thread> threads;
  threads.reserve(nworkers - 1);
  for (std::size_t w = 1; w < nworkers; ++w) threads.emplace_back(run_one, w);
  run_one(0);
  for (std::thread& t : threads) t.join();

  for (FrontierOut& o : outs) {
    st.calls += o.calls;
    for (ShardRecord& r : o.records) {
      st.records.push_back(std::move(r));
      st.note(st.records.back());
    }
    st.pending.insert(st.pending.end(),
                      std::make_move_iterator(o.leftovers.begin()),
                      std::make_move_iterator(o.leftovers.end()));
  }
  std::sort(st.pending.begin(), st.pending.end(),
            [](const PendingCell& a, const PendingCell& b) {
              return a.seq < b.seq;
            });
}

ShardSearchProgress make_progress(const ode::ReachAvoidSpec& spec,
                                  const EngineState& st, std::size_t rounds) {
  ShardSearchProgress p;
  const double total = spec.x0.volume();
  p.coverage = total > 0.0 ? st.certified_volume / total : 0.0;
  p.certified_cells = st.certified_cells;
  p.rejected_cells = st.rejected_cells;
  p.pending_cells = st.pending.size();
  p.verifier_calls = static_cast<std::size_t>(st.calls);
  p.rounds = rounds;
  return p;
}

EngineState run_engine(const reach::Verifier& verifier,
                       const ode::ReachAvoidSpec& spec,
                       const nn::Controller& ctrl,
                       const ShardSearchOptions& opt,
                       std::uint64_t fingerprint) {
  validate_search_depth(opt.base.max_depth);
  if (opt.shards == 0) {
    throw std::invalid_argument("ShardSearchOptions::shards must be >= 1");
  }
  const bool one_shard = opt.shard_index != ShardSearchOptions::kAllShards;
  if (one_shard && opt.shard_index >= opt.shards) {
    throw std::invalid_argument("ShardSearchOptions::shard_index " +
                                std::to_string(opt.shard_index) +
                                " out of range for " +
                                std::to_string(opt.shards) + " shards");
  }

  if (opt.base.reuse_parent_prefix) {
    throw std::invalid_argument(
        "InitialSetOptions::reuse_parent_prefix was removed; every cell is "
        "verified on its own");
  }
  std::unique_ptr<CheckpointFile> ckpt;
  if (!opt.checkpoint_file.empty()) {
    ckpt = std::make_unique<CheckpointFile>(
        opt.checkpoint_file, fingerprint,
        static_cast<std::uint32_t>(opt.shards),
        one_shard ? static_cast<std::uint32_t>(opt.shard_index)
                  : kCkptAllShards);
  }

  EngineState st;
  if (ckpt != nullptr && ckpt->has_snapshot()) {
    st = ckpt->take_state();
  } else {
    st.pending.push_back({spec.x0, 0, 1});
    const std::size_t grain = std::max<std::size_t>(opt.prefix_grain, 1);
    const std::size_t target = opt.shards * grain;
    while (!st.pending.empty() && st.pending.size() < target) {
      expand_level(verifier, spec, ctrl, opt, st);
    }
    if (one_shard) {
      // Round-robin partition of the deterministic prefix frontier; the
      // shared prefix records/calls are reported by shard 0 only, so the
      // merged totals equal a single-process run.
      std::vector<PendingCell> mine;
      for (std::size_t i = 0; i < st.pending.size(); ++i) {
        if (i % opt.shards == opt.shard_index) {
          mine.push_back(std::move(st.pending[i]));
        }
      }
      if (opt.shard_index != 0) {
        st = EngineState{};
      }
      st.pending = std::move(mine);
    }
    if (ckpt != nullptr) ckpt->append(st);
  }

  const bool bounded = ckpt != nullptr || opt.progress != nullptr;
  const std::size_t budget_limit =
      bounded ? std::max<std::size_t>(opt.checkpoint_every, 1)
              : std::numeric_limits<std::size_t>::max();
  std::size_t rounds = 0;
  while (!st.pending.empty()) {
    run_round(verifier, spec, ctrl, opt, st, budget_limit);
    ++rounds;
    if (ckpt != nullptr) ckpt->append(st);
    if (opt.progress && !opt.progress(make_progress(spec, st, rounds))) {
      break;  // anytime cancel: st holds a sound partial result
    }
  }
  return st;
}

// The ordered-replay finalizer shared with merge_shard_results: sort the
// terminal records by heap sequence number (= breadth-first emission
// order) and accumulate volumes in that order, reproducing every bit of
// the breadth-first coverage sum at any shard count.
InitialSetResult finalize_records(std::vector<ShardRecord> records,
                                  double total_volume, std::uint64_t calls) {
  std::sort(records.begin(), records.end(),
            [](const ShardRecord& a, const ShardRecord& b) {
              return a.seq < b.seq;
            });
  InitialSetResult res;
  res.verifier_calls = static_cast<std::size_t>(calls);
  double certified_volume = 0.0;
  for (ShardRecord& r : records) {
    if (r.verdict == CellVerdict::kCertified) {
      certified_volume += r.box.volume();
      res.certified.push_back(std::move(r.box));
    } else {
      res.falsified += r.verdict == CellVerdict::kFalsified ? 1 : 0;
      res.rejected.push_back(std::move(r.box));
    }
  }
  res.coverage = total_volume > 0.0 ? certified_volume / total_volume : 0.0;
  return res;
}

}  // namespace

std::uint64_t xi_search_fingerprint(const reach::Verifier& verifier,
                                    const ode::ReachAvoidSpec& spec,
                                    const nn::Controller& ctrl,
                                    const InitialSetOptions& base) {
  // Caching never changes bits, so a cached and an uncached run of the
  // same search share a fingerprint (and produce identical result files).
  const reach::Verifier* inner = &verifier;
  if (const auto* cv =
          dynamic_cast<const reach::CachingVerifier*>(&verifier)) {
    inner = cv->inner().get();
  }
  ser::Writer w;
  w.str(inner->name());
  w.u64(inner->cache_salt());
  w.str(ctrl.describe());
  const linalg::Vec theta = ctrl.params();
  w.u64(theta.size());
  for (std::size_t i = 0; i < theta.size(); ++i) w.f64(theta[i]);
  ser::put(w, spec.x0);
  ser::put(w, spec.goal);
  ser::put(w, spec.unsafe);
  w.u64(spec.goal_dims.size());
  for (const std::size_t d : spec.goal_dims) w.u64(d);
  w.u64(spec.unsafe_dims.size());
  for (const std::size_t d : spec.unsafe_dims) w.u64(d);
  w.f64(spec.delta);
  w.u64(spec.steps);
  ser::put(w, spec.state_bounds);
  w.u8(spec.stop_at_goal ? 1 : 0);
  w.u64(base.max_depth);
  w.u8(base.check_safety ? 1 : 0);
  return ser::checksum64(w.bytes().data(), w.bytes().size());
}

InitialSetResult search_initial_set_sharded(const reach::Verifier& verifier,
                                            const ode::ReachAvoidSpec& spec,
                                            const nn::Controller& ctrl,
                                            const ShardSearchOptions& opt) {
  if (opt.shard_index != ShardSearchOptions::kAllShards) {
    throw std::invalid_argument(
        "search_initial_set_sharded runs every shard; use "
        "search_initial_set_shard for a single-shard (multi-process) run");
  }
  const std::uint64_t fingerprint =
      xi_search_fingerprint(verifier, spec, ctrl, opt.base);
  EngineState st = run_engine(verifier, spec, ctrl, opt, fingerprint);
  return finalize_records(std::move(st.records), spec.x0.volume(), st.calls);
}

ShardResult search_initial_set_shard(const reach::Verifier& verifier,
                                     const ode::ReachAvoidSpec& spec,
                                     const nn::Controller& ctrl,
                                     const ShardSearchOptions& opt) {
  if (opt.shard_index == ShardSearchOptions::kAllShards) {
    throw std::invalid_argument(
        "search_initial_set_shard requires an explicit shard_index");
  }
  ShardResult sr;
  sr.fingerprint = xi_search_fingerprint(verifier, spec, ctrl, opt.base);
  sr.shards = static_cast<std::uint32_t>(opt.shards);
  sr.shard_index = static_cast<std::uint32_t>(opt.shard_index);
  sr.includes_prefix = opt.shard_index == 0;
  EngineState st = run_engine(verifier, spec, ctrl, opt, sr.fingerprint);
  sr.complete = st.pending.empty();
  sr.verifier_calls = st.calls;
  sr.records = std::move(st.records);
  return sr;
}

InitialSetResult merge_shard_results(const ode::ReachAvoidSpec& spec,
                                     std::vector<ShardResult> parts) {
  if (parts.empty()) {
    throw std::runtime_error("merge_shard_results: no shard results");
  }
  const std::uint64_t fingerprint = parts.front().fingerprint;
  const std::uint32_t shards = parts.front().shards;
  if (parts.size() != shards) {
    throw std::runtime_error(
        "merge_shard_results: " + std::to_string(parts.size()) +
        " parts for a " + std::to_string(shards) + "-shard search");
  }
  std::vector<char> seen(shards, 0);
  for (const ShardResult& p : parts) {
    if (p.fingerprint != fingerprint || p.shards != shards) {
      throw std::runtime_error(
          "merge_shard_results: parts come from different search "
          "configurations");
    }
    if (p.shard_index >= shards || seen[p.shard_index] != 0) {
      throw std::runtime_error(
          "merge_shard_results: missing or duplicate shard index " +
          std::to_string(p.shard_index));
    }
    seen[p.shard_index] = 1;
    if (!p.complete) {
      throw std::runtime_error("merge_shard_results: shard " +
                               std::to_string(p.shard_index) +
                               " is incomplete (cancelled mid-search)");
    }
    if (p.includes_prefix != (p.shard_index == 0)) {
      throw std::runtime_error(
          "merge_shard_results: prefix records must come from shard 0 "
          "exactly");
    }
  }
  std::vector<ShardRecord> records;
  std::uint64_t calls = 0;
  for (ShardResult& p : parts) {
    calls += p.verifier_calls;
    records.insert(records.end(), std::make_move_iterator(p.records.begin()),
                   std::make_move_iterator(p.records.end()));
  }
  // Terminal cells are distinct tree nodes, so sequence numbers are
  // unique; a duplicate means overlapping parts (e.g. shard files from
  // two runs whose trees overlap, which equal fingerprints should have
  // ruled out — treat it as corruption, not silently double-counted
  // volume).
  std::vector<std::uint64_t> seqs;
  seqs.reserve(records.size());
  for (const ShardRecord& r : records) seqs.push_back(r.seq);
  std::sort(seqs.begin(), seqs.end());
  if (std::adjacent_find(seqs.begin(), seqs.end()) != seqs.end()) {
    throw std::runtime_error(
        "merge_shard_results: duplicate terminal cell across parts");
  }
  return finalize_records(std::move(records), spec.x0.volume(), calls);
}

void put(ser::Writer& w, const ShardResult& v) {
  w.u64(v.fingerprint);
  w.u32(v.shards);
  w.u32(v.shard_index);
  w.u8(v.includes_prefix ? 1 : 0);
  w.u8(v.complete ? 1 : 0);
  w.u64(v.verifier_calls);
  w.u64(v.records.size());
  for (const ShardRecord& r : v.records) {
    w.u64(r.seq);
    w.u8(static_cast<std::uint8_t>(r.verdict));
    ser::put(w, r.box);
  }
}

bool get(ser::Reader& r, ShardResult& out) {
  out = ShardResult{};
  out.fingerprint = r.u64();
  out.shards = r.u32();
  out.shard_index = r.u32();
  const std::uint8_t prefix = r.u8();
  const std::uint8_t complete = r.u8();
  out.verifier_calls = r.u64();
  if (!r.ok() || prefix > 1 || complete > 1 || out.shards == 0 ||
      out.shard_index >= out.shards) {
    r.fail();
    return false;
  }
  out.includes_prefix = prefix != 0;
  out.complete = complete != 0;
  const std::uint64_t n = r.count(8 + 1 + 8);
  if (!r.ok()) return false;
  out.records.resize(static_cast<std::size_t>(n));
  for (ShardRecord& rec : out.records) {
    rec.seq = r.u64();
    const std::uint8_t flag = r.u8();
    if (!r.ok() || rec.seq == 0 || flag > kMaxVerdict) {
      r.fail();
      return false;
    }
    rec.verdict = static_cast<CellVerdict>(flag);
    if (!ser::get(r, rec.box)) return false;
  }
  return r.ok();
}

namespace {

ser::Bytes framed_file_bytes(std::uint64_t magic, const ser::Bytes& payload) {
  ser::Writer w;
  w.u64(magic);
  w.u32(kFileVersion);
  w.u32(0);  // reserved
  w.u64(payload.size());
  w.u64(ser::checksum64(payload.data(), payload.size()));
  ser::Bytes out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

ser::Bytes open_framed_file(const std::string& path, std::uint64_t magic) {
  const ser::Bytes data = read_whole_file(path, nullptr);
  constexpr std::size_t kHeader = 8 + 4 + 4 + kFrameSize;
  if (data.size() < kHeader) {
    throw std::runtime_error(path + ": truncated dwv result file");
  }
  ser::Reader h(data.data(), kHeader);
  if (h.u64() != magic || h.u32() != kFileVersion) {
    throw std::runtime_error(path + ": not the expected dwv result format");
  }
  h.u32();  // reserved
  const std::uint64_t len = h.u64();
  const std::uint64_t sum = h.u64();
  if (len != data.size() - kHeader ||
      ser::checksum64(data.data() + kHeader, static_cast<std::size_t>(len)) !=
          sum) {
    throw std::runtime_error(path + ": corrupt dwv result file");
  }
  return ser::Bytes(data.begin() + static_cast<std::ptrdiff_t>(kHeader),
                    data.end());
}

}  // namespace

void save_shard_result_file(const std::string& path, const ShardResult& v) {
  ser::Writer w;
  put(w, v);
  write_whole_file(path, framed_file_bytes(kShardMagic, w.bytes()));
}

ShardResult load_shard_result_file(const std::string& path) {
  const ser::Bytes payload = open_framed_file(path, kShardMagic);
  ser::Reader r(payload);
  ShardResult out;
  if (!get(r, out) || r.remaining() != 0) {
    throw std::runtime_error(path + ": malformed shard result payload");
  }
  return out;
}

void save_initial_set_result_file(const std::string& path,
                                  std::uint64_t fingerprint,
                                  const InitialSetResult& v) {
  ser::Writer w;
  w.u64(fingerprint);
  put(w, v);
  write_whole_file(path, framed_file_bytes(kResultMagic, w.bytes()));
}

InitialSetResult load_initial_set_result_file(const std::string& path,
                                              std::uint64_t* fingerprint) {
  const ser::Bytes payload = open_framed_file(path, kResultMagic);
  ser::Reader r(payload);
  const std::uint64_t fp = r.u64();
  InitialSetResult out;
  if (!get(r, out) || r.remaining() != 0) {
    throw std::runtime_error(path + ": malformed search result payload");
  }
  if (fingerprint != nullptr) *fingerprint = fp;
  return out;
}

}  // namespace dwv::core
