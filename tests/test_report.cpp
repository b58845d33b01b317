// The end-of-run report flsim and flserver share (src/cli/report.h).
#include "cli/report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace adafl::cli {
namespace {

std::string report(const fl::TrainLog& log, bool checkpoint_written) {
  std::ostringstream os;
  print_run_report(os, log, checkpoint_written, {{"wall-clock time", "0.4s"}});
  return os.str();
}

fl::RoundRecord record(int round, double accuracy) {
  fl::RoundRecord r;
  r.round = round;
  r.test_accuracy = accuracy;
  return r;
}

TEST(RunReport, StopBeforeFirstEvaluationOmitsAccuracy) {
  // A stop before the first evaluated round leaves an interrupted log with
  // no records: there is no accuracy to print, and asking for one threw.
  fl::TrainLog log;
  log.interrupted = true;
  std::string out;
  ASSERT_NO_THROW(out = report(log, /*checkpoint_written=*/false));
  EXPECT_NE(out.find("interrupted: 1 (no checkpoint configured"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("--resume"), std::string::npos) << out;
  EXPECT_EQ(out.find("accuracy"), std::string::npos) << out;
  EXPECT_NE(out.find("wall-clock time"), std::string::npos) << out;
}

TEST(RunReport, EvaluatedRunReportsFinalAndBestAccuracy) {
  fl::TrainLog log;
  log.records = {record(1, 0.5), record(2, 0.75), record(3, 0.625)};
  const std::string out = report(log, /*checkpoint_written=*/false);
  EXPECT_EQ(out.find("interrupted"), std::string::npos) << out;
  const auto row = [&](const char* metric) {
    const std::size_t at = out.find(metric);
    return at == std::string::npos ? std::string()
                                   : out.substr(at, out.find('\n', at) - at);
  };
  EXPECT_NE(row("final accuracy").find("62.50%"), std::string::npos) << out;
  EXPECT_NE(row("best accuracy").find("75.00%"), std::string::npos) << out;
  EXPECT_NE(out.find("final-accuracy: 0.625000\n"), std::string::npos) << out;
}

TEST(RunReport, InterruptedRunWithCheckpointSaysHowToResume) {
  fl::TrainLog log;
  log.interrupted = true;
  log.records = {record(2, 0.5)};
  const std::string out = report(log, /*checkpoint_written=*/true);
  EXPECT_NE(out.find("interrupted: 1 (checkpoint written; rerun with "
                     "--resume=1 to continue)\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("final-accuracy: 0.500000\n"), std::string::npos) << out;
}

}  // namespace
}  // namespace adafl::cli
