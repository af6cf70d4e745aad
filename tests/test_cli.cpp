// The dwv command line rejects malformed numeric options loudly: a bad
// value prints "error: --opt expects ..." and exits with status 2 before
// any work starts, instead of being guessed (strtol garbage -> 0 -> auto,
// negative values wrapping through size_t, unchecked narrowing, strtod
// garbage -> 0.0, sscanf ignoring trailing characters).
#include <sys/wait.h>

#include <cstdio>
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

}  // namespace
