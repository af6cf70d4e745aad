// CSV export of learning histories and flowpipes, so the bench binaries'
// series can be plotted directly (gnuplot/matplotlib-friendly: header line,
// comma-separated, one record per row).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/learner.hpp"
#include "reach/flowpipe.hpp"

namespace dwv::core {

/// Writes the per-iteration learning curve:
/// iter,d_u,d_g,w_goal,w_unsafe,feasible
/// A metric family absent from a record (the learner records only the
/// family it ran with) is written as empty cells, e.g. `3,0.5,1.25,,,0`.
void write_history_csv(std::ostream& os,
                       const std::vector<IterationRecord>& history);
void write_history_csv_file(const std::string& path,
                            const std::vector<IterationRecord>& history);

/// Writes a flowpipe's step sets: step,t,dim0_lo,dim0_hi,dim1_lo,...
void write_flowpipe_csv(std::ostream& os, const reach::Flowpipe& fp,
                        double delta);
void write_flowpipe_csv_file(const std::string& path,
                             const reach::Flowpipe& fp, double delta);

}  // namespace dwv::core
