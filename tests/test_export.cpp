#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/export.hpp"

namespace dwv::core {
namespace {

using geom::Box;
using interval::Interval;

TEST(Export, HistoryCsvFormat) {
  // A family absent from a record is written as empty cells (the learner
  // records only the family it runs with).
  std::vector<IterationRecord> history(3);
  history[0].iter = 0;
  history[0].geo = GeometricMetrics{-1.5, -2.5};
  history[0].wass = WassersteinMetrics{3.0, 0.5};
  history[1].iter = 1;
  history[1].geo = GeometricMetrics{0.25, 0.75};
  history[1].feasible = true;
  history[2].iter = 2;
  history[2].wass = WassersteinMetrics{0.125, 2.0};

  std::stringstream ss;
  write_history_csv(ss, history);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "iter,d_u,d_g,w_goal,w_unsafe,feasible");
  std::getline(ss, line);
  EXPECT_EQ(line, "0,-1.5,-2.5,3,0.5,0");
  std::getline(ss, line);
  EXPECT_EQ(line, "1,0.25,0.75,,,1");
  std::getline(ss, line);
  EXPECT_EQ(line, "2,,,0.125,2,0");
}

TEST(Export, FlowpipeCsvFormat) {
  reach::Flowpipe fp;
  fp.step_sets = {Box{Interval(0.0, 1.0), Interval(-1.0, 1.0)},
                  Box{Interval(0.5, 1.5), Interval(-0.5, 0.5)}};
  std::stringstream ss;
  write_flowpipe_csv(ss, fp, 0.1);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "step,t,x0_lo,x0_hi,x1_lo,x1_hi");
  std::getline(ss, line);
  EXPECT_EQ(line, "0,0,0,1,-1,1");
  std::getline(ss, line);
  EXPECT_EQ(line, "1,0.1,0.5,1.5,-0.5,0.5");
}

TEST(Export, EmptyFlowpipe) {
  reach::Flowpipe fp;
  std::stringstream ss;
  write_flowpipe_csv(ss, fp, 0.1);
  EXPECT_EQ(ss.str(), "step,t\n");
}

TEST(Export, FileRoundTrip) {
  std::vector<IterationRecord> history(1);
  write_history_csv_file("/tmp/dwv_history.csv", history);
  std::ifstream check("/tmp/dwv_history.csv");
  EXPECT_TRUE(check.good());
  EXPECT_THROW(write_history_csv_file("/nonexistent/x.csv", history),
               std::runtime_error);
}

}  // namespace
}  // namespace dwv::core
