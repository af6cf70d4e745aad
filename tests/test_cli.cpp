// The dwv command line rejects malformed numeric options loudly: a bad
// value prints "error: --opt expects ..." and exits with status 2 before
// any work starts, instead of being guessed (strtol garbage -> 0 -> auto,
// negative values wrapping through size_t, unchecked narrowing, strtod
// garbage -> 0.0, sscanf ignoring trailing characters). An unknown or
// misspelled option fails the same way instead of being ignored. Its
// --cache-stats line counts the hits of both cache tiers, and `learn
// --grad` says once why it ran SPSA when the gradient is unavailable.
// `cache-compact` fails loudly on a directory that is not there.
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace {

// Exit status (-1 when the process did not exit normally) and the
// combined stdout/stderr of one CLI run.
struct CliRun {
  int status = -1;
  std::string output;
};

CliRun run_cli(const std::string& args) {
  const std::string cmd =
      std::string("'") + DWV_CLI_PATH + "' " + args + " 2>&1";
  CliRun run;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.status = WEXITSTATUS(status);
  return run;
}

TEST(Cli, RejectsMalformedIntegerOptions) {
  const struct {
    const char* args;
    const char* option;
  } cases[] = {
      {"learn acc --threads abc", "--threads"},
      {"learn acc --threads -1", "--threads"},
      {"learn acc --threads 4x", "--threads"},
      {"learn acc --threads ' 4'", "--threads"},
      {"learn acc --threads +4", "--threads"},
      {"learn acc --threads ''", "--threads"},
      {"learn acc --batch -3", "--batch"},
      {"learn acc --substeps 0", "--substeps"},
      {"learn acc --order 4294967297", "--order"},
      {"learn acc --sym-queue 1e3", "--sym-queue"},
      {"learn acc --seed 99999999999999999999999", "--seed"},
      {"learn acc --iters 2.5", "--iters"},
      {"search acc --depth 63", "--depth"},
      {"search acc --shards 0", "--shards"},
      {"simulate acc --samples 0", "--samples"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_cli(c.args);
    EXPECT_EQ(run.status, 2) << c.args << "\n" << run.output;
    EXPECT_NE(run.output.find(std::string("error: ") + c.option + " expects"),
              std::string::npos)
        << c.args << "\n" << run.output;
  }
}

TEST(Cli, RejectsMalformedRtolAndShard) {
  const struct {
    const char* args;
    const char* option;
  } cases[] = {
      {"verify acc --adaptive-rtol abc", "--adaptive-rtol"},
      {"verify acc --adaptive-rtol 0", "--adaptive-rtol"},
      {"verify acc --adaptive-rtol -1e-3", "--adaptive-rtol"},
      {"verify acc --adaptive-rtol 1e-3x", "--adaptive-rtol"},
      {"verify acc --adaptive-rtol ' 1e-3'", "--adaptive-rtol"},
      {"verify acc --adaptive-rtol inf", "--adaptive-rtol"},
      {"verify acc --adaptive-rtol nan", "--adaptive-rtol"},
      {"verify acc --adaptive-rtol ''", "--adaptive-rtol"},
      {"search acc --shard 1/2x", "--shard"},
      {"search acc --shard 2/2", "--shard"},
      {"search acc --shard 0/0", "--shard"},
      {"search acc --shard 1", "--shard"},
      {"search acc --shard /2", "--shard"},
      {"search acc --shard 1/", "--shard"},
      {"search acc --shard +0/2", "--shard"},
      {"search acc --shard 0/+2", "--shard"},
      {"search acc --shard ' 0/2'", "--shard"},
      {"search acc --shard 0/2/3", "--shard"},
      {"search acc --shard 0/99999999999999999999999", "--shard"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_cli(c.args);
    EXPECT_EQ(run.status, 2) << c.args << "\n" << run.output;
    EXPECT_NE(run.output.find(std::string("error: ") + c.option + " expects"),
              std::string::npos)
        << c.args << "\n" << run.output;
  }
}

TEST(Cli, RejectsUnknownOptions) {
  const struct {
    const char* args;
    const char* option;
  } cases[] = {
      {"search acc --reuse-prefix", "--reuse-prefix"},
      {"verify acc --reuse-prefix", "--reuse-prefix"},
      {"learn acc --thraeds 2", "--thraeds"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_cli(c.args);
    EXPECT_EQ(run.status, 2) << c.args << "\n" << run.output;
    EXPECT_NE(
        run.output.find(std::string("error: unknown option ") + c.option),
        std::string::npos)
        << c.args << "\n" << run.output;
  }
}

TEST(Cli, AcceptsWellFormedRtolAndShard) {
  // Both values parse; each run then stops at its own, later check.
  const CliRun rtol = run_cli("verify acc --adaptive-rtol 1e-3");
  EXPECT_NE(rtol.output.find("verify requires --controller"),
            std::string::npos)
      << rtol.output;
  const CliRun shard = run_cli("search acc --depth 1 --shard 1/2");
  EXPECT_NE(shard.output.find("--shard requires --out"), std::string::npos)
      << shard.output;
}

TEST(Cli, AcceptsWellFormedIntegerOptions) {
  const CliRun run =
      run_cli("search acc --depth 1 --threads 1 --batch 1 --shards 1");
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("X_I search:"), std::string::npos) << run.output;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Cli, LearnReportsGradFallback) {
  // The oscillator's default MLP controller is outside the gradient
  // engine's support: the run falls back to SPSA and prints the reason
  // once. The ACC linear controller under linctrl is supported: no reason.
  const std::string notice = "analytic gradient unavailable (";
  const CliRun mlp = run_cli("learn oscillator --grad --iters 1");
  EXPECT_NE(mlp.output.find("after 1 iterations"), std::string::npos)
      << mlp.output;
  EXPECT_EQ(count_of(mlp.output, notice), 1u) << mlp.output;
  const CliRun acc = run_cli("learn acc --verifier linctrl --grad --iters 1");
  EXPECT_NE(acc.output.find("after 1 iterations"), std::string::npos)
      << acc.output;
  EXPECT_EQ(count_of(acc.output, notice), 0u) << acc.output;
}

// The "cache:" line of --cache-stats: total hits over both tiers, their
// memory/disk split, the lookups and the hit rate. Returns false when the
// line is missing or malformed.
struct CacheLine {
  unsigned long long hits = 0, memory = 0, disk = 0, lookups = 0;
  double rate = -1.0;
};
bool parse_cache_line(const std::string& out, CacheLine& c) {
  const std::size_t pos = out.find("cache: ");
  if (pos == std::string::npos) return false;
  return std::sscanf(out.c_str() + pos,
                     "cache: %llu hits (%llu memory, %llu disk) / %llu "
                     "lookups (%lf%%)",
                     &c.hits, &c.memory, &c.disk, &c.lookups, &c.rate) == 5;
}

TEST(Cli, CacheStatsCountHitsOfBothTiers) {
  // A warm --grad learn answers every lookup from the disk tier. The
  // stats line must count those hits next to its 100.0% rate instead of
  // printing the memory tier's 0.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dwv_cli_grad_cache";
  std::filesystem::remove_all(dir);
  const std::string cmd =
      "learn acc --verifier linctrl --grad --samples 1 --cache-stats "
      "--cache-dir '" + dir.string() + "'";
  const CliRun cold = run_cli(cmd);
  ASSERT_EQ(cold.status, 0) << cold.output;
  const CliRun warm = run_cli(cmd);
  ASSERT_EQ(warm.status, 0) << warm.output;
  std::filesystem::remove_all(dir);

  CacheLine c, w;
  ASSERT_TRUE(parse_cache_line(cold.output, c)) << cold.output;
  ASSERT_TRUE(parse_cache_line(warm.output, w)) << warm.output;
  EXPECT_EQ(c.hits, c.memory + c.disk);
  EXPECT_LT(c.hits, c.lookups);
  EXPECT_EQ(w.hits, w.memory + w.disk);
  EXPECT_EQ(w.hits, w.lookups);
  EXPECT_EQ(w.lookups, c.lookups);
  EXPECT_GT(w.disk, 0u);
  EXPECT_NE(warm.output.find("(100.0%)"), std::string::npos) << warm.output;
}

TEST(Cli, CacheCompactRejectsAMissingDirectory) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dwv_cli_no_cache_dir";
  std::filesystem::remove_all(dir);
  const std::string cmd = "cache-compact --cache-dir '" + dir.string() + "'";
  const CliRun missing = run_cli(cmd);
  EXPECT_EQ(missing.status, 1) << missing.output;
  EXPECT_NE(missing.output.find("error: cache-dir"), std::string::npos)
      << missing.output;
  // A plain file where the directory should be fails the same way.
  { std::ofstream(dir) << "not a directory"; }
  const CliRun file = run_cli(cmd);
  std::filesystem::remove(dir);
  EXPECT_EQ(file.status, 1) << file.output;
  EXPECT_NE(file.output.find("error: cache-dir"), std::string::npos)
      << file.output;
}

}  // namespace
