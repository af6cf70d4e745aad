#include "reach/cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "reach/serialize.hpp"

namespace dwv::reach {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// One multiply + xor-shift per 8-byte word (vs. 8 FNV byte rounds): keys
// are built per verifier call, so this is on the learning hot path.
std::uint64_t mix_step(std::uint64_t h, std::uint64_t word) {
  h ^= word;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

std::uint64_t canonical_bits(double x) {
  // Fold -0.0 onto +0.0 so the two (numerically equal) keys coincide; all
  // other values (including NaN payloads) keep their exact bits.
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Persistent-tier on-disk format (DESIGN.md §15) ---------------------
//
// File   = Header Record*
// Header = magic:u64 version:u32 reserved:u32 salt:u64        (24 bytes)
// Record = payload_len:u64 checksum:u64 payload               (16 + len)
// payload = key.id:u64 nwords:u64 word:u64*nwords flowpipe(ser::put)
//
// Logs are append-only: every insert appends one framed record (last
// record per key wins), `compact_cache_dir` rewrites live records and
// publishes by rename. The header's salt repeats the salt hex in the
// file name; both must match the opener's configuration or the file is
// treated as cold. The checksum covers the payload, so a torn append or
// flipped byte invalidates exactly that record; the open-time scan stops
// at the first invalid record and truncates the torn tail away.

// "DWVFCAC1" little-endian: cache-format magic, version in the last byte.
constexpr std::uint64_t kDiskMagic = 0x3143414346565744ull;
constexpr std::uint32_t kDiskVersion = 1;
constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kFrameSize = 16;

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw std::runtime_error("cache-dir " + what + " failed for '" + path +
                           "': " + std::strerror(errno));
}

std::string shard_file_name(std::uint64_t salt, std::size_t shard) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx-%02zu.dwvfc",
                static_cast<unsigned long long>(salt), shard);
  return buf;
}

ser::Bytes header_bytes(std::uint64_t salt) {
  ser::Writer w;
  w.u64(kDiskMagic);
  w.u32(kDiskVersion);
  w.u32(0);
  w.u64(salt);
  return w.take();
}

/// Parses the cache key out of a record payload and leaves `r` positioned
/// at the flowpipe bytes. Returns false on malformed input.
bool parse_payload_key(ser::Reader& r, FlowpipeCache::Key& key) {
  key.id = r.u64();
  const std::uint64_t nwords = r.count(8);
  if (!r.ok()) return false;
  key.words.resize(static_cast<std::size_t>(nwords));
  for (std::size_t i = 0; i < nwords; ++i) key.words[i] = r.u64();
  if (!r.ok()) return false;
  key.hash = hash_words(key.id, key.words.data(), key.words.size());
  return true;
}

/// Body of a flowpipe record.
ser::Bytes pipe_bytes(const Flowpipe& fp) {
  ser::Writer w;
  ser::put(w, fp);
  return w.take();
}

/// One scanned record: its frame bounds within the file and its key.
struct ScannedRecord {
  FlowpipeCache::Key key;
  std::uint64_t frame_off = 0;    ///< offset of the length field
  std::uint64_t payload_len = 0;  ///< payload bytes (frame adds 16)
};

/// Walks `data` (a full shard file) and appends every valid record.
/// Returns the offset one past the last valid record — the truncation
/// point for a torn tail. Stops at the first invalid record: offsets
/// after a corrupt length field cannot be trusted.
std::uint64_t scan_records(const std::uint8_t* data, std::uint64_t size,
                           std::vector<ScannedRecord>& out) {
  std::uint64_t pos = kHeaderSize;
  while (pos + kFrameSize <= size) {
    ser::Reader fr(data + pos, kFrameSize);
    const std::uint64_t len = fr.u64();
    const std::uint64_t sum = fr.u64();
    if (len > size - pos - kFrameSize) break;  // truncated / corrupt length
    const std::uint8_t* payload = data + pos + kFrameSize;
    if (ser::checksum64(payload, static_cast<std::size_t>(len)) != sum) break;
    ser::Reader pr(payload, static_cast<std::size_t>(len));
    ScannedRecord rec;
    if (!parse_payload_key(pr, rec.key)) break;
    rec.frame_off = pos;
    rec.payload_len = len;
    out.push_back(std::move(rec));
    pos += kFrameSize + len;
  }
  return pos;
}

}  // namespace

struct FlowpipeCache::DiskTier {
  struct Loc {
    std::uint32_t file = 0;
    std::uint64_t payload_off = 0;
    std::uint64_t payload_len = 0;
  };
  struct ShardFile {
    std::string path;
    int fd = -1;
    std::uint8_t* map = nullptr;  ///< valid prefix mapped at open (RO)
    std::size_t map_len = 0;
    std::uint64_t size = 0;  ///< logical size incl. this-run appends
  };

  std::string dir;
  std::uint64_t salt = 0;
  std::vector<ShardFile> files;
  std::unordered_map<Key, Loc, KeyHash> index;
  std::mutex mu;

  ~DiskTier() {
    for (ShardFile& f : files) {
      if (f.map != nullptr) ::munmap(f.map, f.map_len);
      if (f.fd >= 0) ::close(f.fd);
    }
  }
};

std::uint64_t hash_words(std::uint64_t seed, const std::uint64_t* words,
                         std::size_t n) {
  std::uint64_t h = seed ^ kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) h = mix_step(h, words[i]);
  return h;
}

std::uint64_t hash_string(std::uint64_t seed, const std::string& s) {
  std::uint64_t h = seed ^ kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

void push_spec_words(std::vector<std::uint64_t>& w,
                     const ode::ReachAvoidSpec& spec) {
  w.push_back(std::bit_cast<std::uint64_t>(spec.delta));
  w.push_back(spec.steps);
  w.push_back(spec.stop_at_goal ? 1 : 0);
  for (const geom::Box* b : {&spec.goal, &spec.unsafe}) {
    w.push_back(b->dim());
    for (std::size_t i = 0; i < b->dim(); ++i) {
      w.push_back(std::bit_cast<std::uint64_t>((*b)[i].lo()));
      w.push_back(std::bit_cast<std::uint64_t>((*b)[i].hi()));
    }
  }
}

void push_poly_words(std::vector<std::uint64_t>& w, const poly::Poly& p) {
  w.push_back(p.nvars());
  w.push_back(p.term_count());
  for (const auto& [key, c] : p.terms()) {
    w.push_back(key);
    w.push_back(std::bit_cast<std::uint64_t>(c));
  }
}

FlowpipeCache::Key FlowpipeCache::make_key(std::uint64_t id,
                                           const geom::Box& x0,
                                           const linalg::Vec& params) {
  Key key;
  key.id = id;
  key.words.reserve(2 * x0.dim() + params.size());
  for (std::size_t i = 0; i < x0.dim(); ++i) {
    key.words.push_back(canonical_bits(x0[i].lo()));
    key.words.push_back(canonical_bits(x0[i].hi()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    key.words.push_back(canonical_bits(params[i]));
  }
  key.hash = hash_words(id, key.words.data(), key.words.size());
  return key;
}

FlowpipeCache::FlowpipeCache(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.capacity < cfg_.shards) cfg_.capacity = cfg_.shards;
  per_shard_capacity_ = (cfg_.capacity + cfg_.shards - 1) / cfg_.shards;
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (cfg_.dir.empty()) return;

  // Open the persistent tier. Directory/open/write failures THROW — the
  // user asked for persistence, and running silently cold would break the
  // warm-start contract. Unreadable CONTENT only degrades to cold.
  auto tier = std::make_unique<DiskTier>();
  tier->dir = cfg_.dir;
  tier->salt = cfg_.disk_salt ^ cfg_.disk_salt_mix;
  {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);
    if (ec) {
      throw std::runtime_error("cache-dir create failed for '" + cfg_.dir +
                               "': " + ec.message());
    }
  }
  const std::size_t nfiles = cfg_.disk_shards == 0 ? 1 : cfg_.disk_shards;
  tier->files.resize(nfiles);
  const ser::Bytes header = header_bytes(tier->salt);
  for (std::size_t k = 0; k < nfiles; ++k) {
    DiskTier::ShardFile& f = tier->files[k];
    f.path = cfg_.dir + "/" + shard_file_name(tier->salt, k);
    f.fd = ::open(f.path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (f.fd < 0) throw_io("open", f.path);
    struct ::stat st{};
    if (::fstat(f.fd, &st) != 0) throw_io("stat", f.path);
    std::uint64_t valid_end = 0;
    if (static_cast<std::uint64_t>(st.st_size) >= kHeaderSize) {
      // Map the whole file once for the open-time scan; the map of the
      // valid prefix is kept for reads (records are immutable once
      // written, so the mapping never goes stale).
      void* m = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, f.fd, 0);
      if (m == MAP_FAILED) throw_io("mmap", f.path);
      const auto* data = static_cast<const std::uint8_t*>(m);
      ser::Reader hr(data, kHeaderSize);
      const bool header_ok = hr.u64() == kDiskMagic &&
                             hr.u32() == kDiskVersion &&
                             (hr.u32(), hr.u64() == tier->salt) && hr.ok();
      if (header_ok) {
        std::vector<ScannedRecord> recs;
        valid_end = scan_records(data, static_cast<std::uint64_t>(st.st_size),
                                 recs);
        for (ScannedRecord& rec : recs) {
          // Later records supersede earlier ones (append-only last-wins).
          tier->index[std::move(rec.key)] = DiskTier::Loc{
              static_cast<std::uint32_t>(k), rec.frame_off + kFrameSize,
              rec.payload_len};
        }
        f.map = static_cast<std::uint8_t*>(m);
        f.map_len = static_cast<std::size_t>(st.st_size);
      } else {
        // Foreign magic, stale version, or mismatched salt: cold. The
        // file name is OURS (salt-hex prefix), so rewriting it cannot
        // clobber a concurrently-used configuration.
        ::munmap(m, static_cast<std::size_t>(st.st_size));
      }
    }
    if (valid_end == 0) {
      if (::ftruncate(f.fd, 0) != 0) throw_io("truncate", f.path);
      if (::write(f.fd, header.data(), header.size()) !=
          static_cast<ssize_t>(header.size())) {
        throw_io("write", f.path);
      }
      valid_end = kHeaderSize;
    } else if (valid_end < static_cast<std::uint64_t>(st.st_size)) {
      // Torn tail from a crashed append: drop it so this run's appends
      // land at a record boundary and stay reachable by the next scan.
      if (::ftruncate(f.fd, static_cast<off_t>(valid_end)) != 0) {
        throw_io("truncate", f.path);
      }
    }
    f.size = valid_end;
    if (f.map_len > valid_end) f.map_len = static_cast<std::size_t>(valid_end);
  }
  disk_ = std::move(tier);
}

FlowpipeCache::~FlowpipeCache() = default;

std::uint64_t FlowpipeCache::mem_insert(const Key& key, const Flowpipe& fp) {
  Shard& sh = shard_for(key);
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      it->second->fp = fp;
      it->second->pending = false;
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    } else {
      sh.lru.emplace_front(Entry{key, fp, false});
      sh.index.emplace(key, sh.lru.begin());
      while (sh.lru.size() > per_shard_capacity_) {
        sh.index.erase(sh.lru.back().key);
        sh.lru.pop_back();
        ++evicted;
      }
    }
  }
  return evicted;
}

bool FlowpipeCache::disk_read(
    const Key& key, const std::function<bool(ser::Reader&)>& parse) {
  if (!disk_) return false;
  DiskTier::Loc loc;
  const std::uint8_t* mapped = nullptr;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(disk_->mu);
    const auto it = disk_->index.find(key);
    if (it == disk_->index.end()) return false;
    loc = it->second;
    const DiskTier::ShardFile& f = disk_->files[loc.file];
    if (loc.payload_off + loc.payload_len <= f.map_len) {
      mapped = f.map + loc.payload_off;  // immutable once written
    } else {
      fd = f.fd;  // appended after the open-time map: pread fallback
    }
  }
  std::vector<std::uint8_t> buf;
  const std::uint8_t* payload = mapped;
  if (payload == nullptr) {
    buf.resize(static_cast<std::size_t>(loc.payload_len));
    const ssize_t got = ::pread(fd, buf.data(), buf.size(),
                                static_cast<off_t>(loc.payload_off));
    if (got != static_cast<ssize_t>(buf.size())) return false;
    payload = buf.data();
  }
  // The index only holds checksum-verified records, but verify structure
  // anyway: a parse failure is a miss, never an error.
  ser::Reader r(payload, static_cast<std::size_t>(loc.payload_len));
  Key stored;
  if (!parse_payload_key(r, stored) || !(stored == key) || !parse(r) ||
      !r.ok() || r.remaining() != 0) {
    return false;
  }
  disk_bytes_read_.fetch_add(loc.payload_len, std::memory_order_relaxed);
  return true;
}

std::optional<Flowpipe> FlowpipeCache::disk_fetch(const Key& key) {
  Flowpipe fp;
  if (!disk_read(key, [&](ser::Reader& r) { return ser::get(r, fp); })) {
    return std::nullopt;
  }
  return fp;
}

void FlowpipeCache::disk_append(const Key& key,
                                const std::vector<std::uint8_t>& body) {
  if (!disk_) return;
  ser::Writer w;
  w.u64(key.id);
  w.u64(key.words.size());
  for (std::uint64_t word : key.words) w.u64(word);
  ser::Bytes payload = w.take();
  payload.insert(payload.end(), body.begin(), body.end());
  ser::Writer frame;
  frame.u64(payload.size());
  frame.u64(ser::checksum64(payload.data(), payload.size()));
  ser::Bytes bytes = frame.take();
  bytes.insert(bytes.end(), payload.begin(), payload.end());

  std::lock_guard<std::mutex> lock(disk_->mu);
  if (disk_->index.count(key) != 0) return;  // already persisted
  const std::size_t k = key.hash % disk_->files.size();
  DiskTier::ShardFile& f = disk_->files[k];
  // One O_APPEND write per record: concurrent appends (all serialized by
  // mu anyway) land whole, and a crash can only tear the LAST record —
  // which the next open's scan drops.
  if (::write(f.fd, bytes.data(), bytes.size()) !=
      static_cast<ssize_t>(bytes.size())) {
    throw_io("write", f.path);
  }
  disk_->index[key] = DiskTier::Loc{static_cast<std::uint32_t>(k),
                                    f.size + kFrameSize,
                                    static_cast<std::uint64_t>(payload.size())};
  f.size += bytes.size();
  disk_bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
}

bool FlowpipeCache::lookup_record(
    const Key& key, const std::function<bool(ser::Reader&)>& parse) {
  const std::uint64_t t0 = now_ns();
  const bool hit = disk_read(key, parse);
  (hit ? disk_hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  return hit;
}

void FlowpipeCache::insert_record(const Key& key,
                                  const std::vector<std::uint8_t>& body) {
  const std::uint64_t t0 = now_ns();
  disk_append(key, body);
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
}

std::optional<Flowpipe> FlowpipeCache::lookup(const Key& key) {
  const std::uint64_t t0 = now_ns();
  Shard& sh = shard_for(key);
  std::optional<Flowpipe> out;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    // Pending placeholders are invisible: a racing reader recomputes, just
    // as it would have before the batched walk inserted the placeholder.
    if (it != sh.index.end() && !it->second->pending) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      out = it->second->fp;
    }
  }
  if (out) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else if ((out = disk_fetch(key))) {
    // Warm start: backfill the memory tier so repeats of this key are RAM
    // hits. Counted as an insertion like any other arrival (lookup_walk
    // does the same, so scalar and batched transcripts stay aligned).
    const std::uint64_t evicted = mem_insert(key, *out);
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (evicted) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  return out;
}

std::optional<Flowpipe> FlowpipeCache::lookup_walk(const Key& key,
                                                   bool* pending_hit) {
  const std::uint64_t t0 = now_ns();
  Shard& sh = shard_for(key);
  std::optional<Flowpipe> out;
  bool hit = false;
  *pending_hit = false;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      hit = true;
      if (it->second->pending) {
        *pending_hit = true;  // value arrives with the batched backfill
      } else {
        out = it->second->fp;
      }
    }
  }
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else if ((out = disk_fetch(key))) {
    // Identical to lookup()'s warm path: the walk transcript must not
    // depend on which tier a hit came from.
    const std::uint64_t evicted = mem_insert(key, *out);
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (evicted) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  return out;
}

void FlowpipeCache::insert(const Key& key, const Flowpipe& fp) {
  const std::uint64_t t0 = now_ns();
  // Concurrent miss on the same key in mem_insert: both threads computed
  // the same (deterministic) pipe; refresh rather than duplicate. Also
  // fills a pending placeholder a racing reader recomputed around.
  const std::uint64_t evicted = mem_insert(key, fp);
  if (disk_) disk_append(key, pipe_bytes(fp));
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
}

void FlowpipeCache::insert_pending(const Key& key) {
  const std::uint64_t t0 = now_ns();
  Shard& sh = shard_for(key);
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      // Re-inserting over a resident entry (e.g. a racing thread computed
      // the value meanwhile): keep the value, just refresh the LRU slot.
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    } else {
      sh.lru.emplace_front(Entry{key, Flowpipe{}, true});
      sh.index.emplace(key, sh.lru.begin());
      while (sh.lru.size() > per_shard_capacity_) {
        sh.index.erase(sh.lru.back().key);
        sh.lru.pop_back();
        ++evicted;
      }
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
}

void FlowpipeCache::replace(const Key& key, const Flowpipe& fp) {
  {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    // No stats, no LRU splice: the entry already paid its insert at the
    // scalar position in the walk; this only fills in the value.
    if (it != sh.index.end()) {
      it->second->fp = fp;
      it->second->pending = false;
    }
  }
  // The scalar sequence persisted this value at its insert(); the batched
  // backfill persists it here — whether or not the placeholder survived
  // in RAM, so both paths leave the same records on disk.
  if (disk_) disk_append(key, pipe_bytes(fp));
}

CacheStats FlowpipeCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.disk_bytes_read = disk_bytes_read_.load(std::memory_order_relaxed);
  s.disk_bytes_written = disk_bytes_written_.load(std::memory_order_relaxed);
  if (disk_) {
    std::lock_guard<std::mutex> lock(disk_->mu);
    s.disk_entries = disk_->index.size();
  }
  s.overhead_seconds =
      1e-9 * static_cast<double>(overhead_ns_.load(std::memory_order_relaxed));
  s.miss_compute_seconds =
      1e-9 *
      static_cast<double>(miss_compute_ns_.load(std::memory_order_relaxed));
  return s;
}

void FlowpipeCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  disk_hits_.store(0, std::memory_order_relaxed);
  disk_bytes_read_.store(0, std::memory_order_relaxed);
  disk_bytes_written_.store(0, std::memory_order_relaxed);
  overhead_ns_.store(0, std::memory_order_relaxed);
  miss_compute_ns_.store(0, std::memory_order_relaxed);
}

void FlowpipeCache::clear() {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->lru.clear();
    sh->index.clear();
  }
}

std::size_t FlowpipeCache::size() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    n += sh->lru.size();
  }
  return n;
}

void FlowpipeCache::add_miss_compute_seconds(double s) {
  miss_compute_ns_.fetch_add(static_cast<std::uint64_t>(s * 1e9),
                             std::memory_order_relaxed);
}

namespace {

// Fold the verifier's configuration fingerprint (dynamics coefficients,
// spec boxes, range mode, adaptive options, ...) in with its name: two
// same-named verifiers over different systems sharing one cache must
// never alias.
std::uint64_t verifier_key_seed(const Verifier& v) {
  std::uint64_t seed = hash_string(0x9e3779b97f4a7c15ull, v.name());
  const std::uint64_t salt = v.cache_salt();
  return hash_words(seed, &salt, 1);
}

// A persistent tier keyed for this verifier: the shard files carry the
// full key seed (name + cache_salt) in their names and headers, so runs
// under a different configuration open different (cold) files.
FlowpipeCache::Config salted(FlowpipeCache::Config cfg, const Verifier& v) {
  if (!cfg.dir.empty() && cfg.disk_salt == 0) {
    cfg.disk_salt = verifier_key_seed(v);
  }
  return cfg;
}

}  // namespace

CachingVerifier::CachingVerifier(VerifierPtr inner,
                                 std::shared_ptr<FlowpipeCache> cache)
    : inner_(std::move(inner)), cache_(std::move(cache)) {
  name_seed_ = verifier_key_seed(*inner_);
}

CachingVerifier::CachingVerifier(VerifierPtr inner, FlowpipeCache::Config cfg)
    : inner_(std::move(inner)) {
  name_seed_ = verifier_key_seed(*inner_);
  cache_ = std::make_shared<FlowpipeCache>(salted(std::move(cfg), *inner_));
}

FlowpipeCache::Key CachingVerifier::key_for(const geom::Box& x0,
                                            const nn::Controller& ctrl,
                                            std::uint64_t kind) const {
  // The controller's architecture string keeps two different controller
  // families with coincidentally equal flat parameter vectors apart.
  const std::uint64_t id = hash_string(name_seed_ ^ kind, ctrl.describe());
  return FlowpipeCache::make_key(id, x0, ctrl.params());
}

Flowpipe CachingVerifier::compute(const geom::Box& x0,
                                  const nn::Controller& ctrl) const {
  const FlowpipeCache::Key key = key_for(x0, ctrl);
  if (std::optional<Flowpipe> hit = cache_->lookup(key)) {
    return std::move(*hit);
  }
  const auto t0 = std::chrono::steady_clock::now();
  Flowpipe fp = inner_->compute(x0, ctrl);
  const auto t1 = std::chrono::steady_clock::now();
  cache_->add_miss_compute_seconds(
      std::chrono::duration<double>(t1 - t0).count());
  cache_->insert(key, fp);
  return fp;
}

CacheCompactionStats compact_cache_dir(const std::string& dir) {
  CacheCompactionStats stats;
  std::error_code ec;
  // A missing directory is an error, not an empty cache: the caller named
  // a cache that is not there.
  if (!std::filesystem::is_directory(dir, ec)) {
    throw std::runtime_error("cache-dir '" + dir + "' is not a directory");
  }
  std::filesystem::directory_iterator files(dir, ec);
  if (ec) {
    throw std::runtime_error("cache-dir open failed for '" + dir +
                             "': " + ec.message());
  }
  for (const auto& entry : files) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (entry.path().extension() != ".dwvfc") continue;

    // Read the whole log; files another tool owns (foreign magic) are left
    // untouched, stale versions of OUR magic are deleted (no reader for
    // them exists anymore), valid files are rewritten to live records.
    std::vector<std::uint8_t> data;
    {
      std::FILE* in = std::fopen(path.c_str(), "rb");
      if (in == nullptr) throw_io("open", path);
      std::fseek(in, 0, SEEK_END);
      const long sz = std::ftell(in);
      std::fseek(in, 0, SEEK_SET);
      data.resize(sz > 0 ? static_cast<std::size_t>(sz) : 0);
      if (!data.empty() && std::fread(data.data(), 1, data.size(), in) !=
                               data.size()) {
        std::fclose(in);
        throw_io("read", path);
      }
      std::fclose(in);
    }
    stats.bytes_before += data.size();
    if (data.size() < kHeaderSize) continue;
    ser::Reader hr(data.data(), kHeaderSize);
    if (hr.u64() != kDiskMagic) continue;  // not ours
    if (hr.u32() != kDiskVersion) {
      std::filesystem::remove(path, ec);
      ++stats.stale_files_deleted;
      continue;
    }

    std::vector<ScannedRecord> recs;
    scan_records(data.data(), data.size(), recs);
    // Live set = last record per key; output preserves first-seen key
    // order, so compacting twice is a fixpoint.
    std::unordered_map<FlowpipeCache::Key, std::size_t, FlowpipeCache::KeyHash>
        last;
    for (std::size_t i = 0; i < recs.size(); ++i) last[recs[i].key] = i;

    const std::string tmp = path + ".tmp";
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) throw_io("open", tmp);
    bool ok = std::fwrite(data.data(), 1, kHeaderSize, out) == kHeaderSize;
    std::uint64_t out_bytes = kHeaderSize;
    for (std::size_t i = 0; ok && i < recs.size(); ++i) {
      if (last[recs[i].key] != i) {
        ++stats.records_dropped;
        continue;
      }
      const std::size_t n =
          kFrameSize + static_cast<std::size_t>(recs[i].payload_len);
      ok = std::fwrite(data.data() + recs[i].frame_off, 1, n, out) == n;
      out_bytes += n;
      ++stats.records_kept;
    }
    if (std::fclose(out) != 0) ok = false;
    if (!ok) {
      std::filesystem::remove(tmp, ec);
      throw_io("write", tmp);
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) throw_io("rename", tmp);
    stats.bytes_after += out_bytes;
    ++stats.files;
  }
  return stats;
}

}  // namespace dwv::reach
