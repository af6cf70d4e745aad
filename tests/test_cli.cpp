// The dwv command line rejects malformed integer options loudly: a bad
// value prints "error: --opt expects ..." and exits with status 2 before
// any work starts, instead of being guessed (strtol garbage -> 0 -> auto,
// negative values wrapping through size_t, unchecked narrowing).
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

TEST(Cli, AcceptsWellFormedIntegerOptions) {
  const CliRun run =
      run_cli("search acc --depth 1 --threads 1 --batch 1 --shards 1");
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("X_I search:"), std::string::npos) << run.output;
}

}  // namespace
