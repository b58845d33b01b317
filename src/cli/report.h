// End-of-run report shared by flsim and flserver.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fl/types.h"

namespace adafl::cli {

/// Prints the end of a run's report: an "interrupted: 1" notice if the run
/// stopped early (telling it to resume only if `checkpoint_written`), a
/// metric/value table of the final and best test accuracy followed by
/// `rows`, and the machine-readable "final-accuracy:" line the soak scripts
/// read. A run stopped before its first evaluated round has no accuracy to
/// report (its log has no records); the accuracy rows and line are then
/// left out, so such a run reports and exits like any other early stop.
void print_run_report(std::ostream& os, const fl::TrainLog& log,
                      bool checkpoint_written,
                      std::vector<std::vector<std::string>> rows);

}  // namespace adafl::cli
