#include "cli/args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cli/task.h"
#include "tensor/check.h"

namespace adafl::cli {
namespace {

ArgParser make() {
  ArgParser p("prog");
  p.option("algo", "fedavg", "algorithm")
      .option("rounds", "40", "round count")
      .option("lr", "0.05", "learning rate")
      .option("verbose", "0", "chatty output");
  return p;
}

bool parse(ArgParser& p, std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, DefaultsApply) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("algo"), "fedavg");
  EXPECT_EQ(p.get_int("rounds"), 40);
  EXPECT_DOUBLE_EQ(p.get_double("lr"), 0.05);
  EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(ArgParser, ParsesKeyValues) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--algo=adafl-sync", "--rounds=80", "--lr=0.1"}));
  EXPECT_EQ(p.get("algo"), "adafl-sync");
  EXPECT_EQ(p.get_int("rounds"), 80);
  EXPECT_DOUBLE_EQ(p.get_double("lr"), 0.1);
}

TEST(ArgParser, BareFlagMeansTrue) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--verbose"}));
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(ArgParser, BoolSpellings) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--verbose=TRUE"}));
  EXPECT_TRUE(p.get_bool("verbose"));
  ArgParser q = make();
  ASSERT_TRUE(parse(q, {"--verbose=off"}));
  EXPECT_FALSE(q.get_bool("verbose"));
}

TEST(ArgParser, UnknownOptionFails) {
  ArgParser p = make();
  EXPECT_FALSE(parse(p, {"--nope=1"}));
  EXPECT_NE(p.error().find("--nope"), std::string::npos);
}

TEST(ArgParser, PositionalArgumentFails) {
  ArgParser p = make();
  EXPECT_FALSE(parse(p, {"positional"}));
}

TEST(ArgParser, HelpFlagDetected) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--help"}));
  EXPECT_TRUE(p.help_requested());
}

TEST(ArgParser, UsageListsOptionsAndDefaults) {
  ArgParser p = make();
  const std::string u = p.usage();
  EXPECT_NE(u.find("--rounds"), std::string::npos);
  EXPECT_NE(u.find("default: 40"), std::string::npos);
  EXPECT_NE(u.find("learning rate"), std::string::npos);
}

TEST(ArgParser, TypedGetterValidation) {
  // A malformed value is a usage error (std::invalid_argument, exit 2 in
  // every binary); an undeclared key is a programming error.
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--rounds=abc"}));
  EXPECT_THROW(p.get_int("rounds"), std::invalid_argument);
  EXPECT_THROW(p.get("undeclared"), CheckError);
  ArgParser q = make();
  ASSERT_TRUE(parse(q, {"--lr=fast"}));
  EXPECT_THROW(q.get_double("lr"), std::invalid_argument);
}

TEST(ArgParser, GetIntAtLeastAcceptsValuesOnTheBound) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--rounds=0"}));
  EXPECT_EQ(p.get_int_at_least("rounds", 0), 0);
  ArgParser q = make();
  ASSERT_TRUE(parse(q, {"--rounds=8"}));
  EXPECT_EQ(q.get_int_at_least("rounds", 1), 8);
}

TEST(ArgParser, GetIntAtLeastRejectsValuesBelowBound) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--rounds=-3"}));
  EXPECT_THROW(p.get_int_at_least("rounds", 0), std::invalid_argument);
}

TEST(SpecFromArgs, CountsBelowOneAreUsageErrorsNamingTheFlag) {
  // A count of 0 would fail a check deep in the data set-up (exit 1); it is
  // a usage error (std::invalid_argument, exit 2) that names the flag.
  const auto spec_parser = [] {
    ArgParser p("prog");
    p.option("dataset", "mnist", "data set")
        .option("model", "cnn", "model")
        .option("dist", "iid", "partition")
        .option("alpha", "0.5", "Dirichlet concentration")
        .option("clients", "4", "clients")
        .option("train-samples", "100", "training samples")
        .option("test-samples", "40", "test samples")
        .option("seed", "1", "seed");
    return p;
  };
  ArgParser ok = spec_parser();
  ASSERT_TRUE(parse(ok, {"--clients=1", "--test-samples=1"}));
  EXPECT_EQ(spec_from_args(ok).test_samples, 1);
  for (const std::string flag : {"clients", "train-samples", "test-samples"}) {
    ArgParser p = spec_parser();
    const std::string token = "--" + flag + "=0";
    ASSERT_TRUE(parse(p, {token.c_str()}));
    try {
      (void)spec_from_args(p);
      ADD_FAILURE() << token << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArgParser, GetPortAcceptsTheWholeRange) {
  for (const char* v : {"--rounds=0", "--rounds=65535"}) {
    ArgParser p = make();
    ASSERT_TRUE(parse(p, {v}));
    EXPECT_EQ(p.get_port("rounds"), p.get_int("rounds")) << v;
  }
}

TEST(ArgParser, GetPortRejectsValuesOutsideTheRange) {
  // A cast would turn these into real ports: 65536 -> 0, -1 -> 65535.
  for (const char* v : {"--rounds=-1", "--rounds=65536", "--rounds=70000"}) {
    ArgParser p = make();
    ASSERT_TRUE(parse(p, {v}));
    EXPECT_THROW(p.get_port("rounds"), std::invalid_argument) << v;
  }
}

TEST(ArgParser, DuplicateDeclarationThrows) {
  ArgParser p("x");
  p.option("a", "1", "first");
  EXPECT_THROW(p.option("a", "2", "again"), CheckError);
}

TEST(ParseEndpoints, KeepsListOrder) {
  const auto eps = parse_endpoints("10.0.0.2:4242,standby.local:4243,[::1]:9");
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].host, "10.0.0.2");
  EXPECT_EQ(eps[0].port, 4242);
  EXPECT_EQ(eps[1].host, "standby.local");
  EXPECT_EQ(eps[1].port, 4243);
  EXPECT_EQ(eps[2].host, "[::1]");
  EXPECT_EQ(eps[2].port, 9);
}

TEST(ParseEndpoints, ErrorNamesTheMalformedItem) {
  for (const char* bad : {"nohost", ":80", "host:", "host:80x", "host:0",
                          "host:70000"}) {
    const std::string list = std::string("a:1,") + bad + ",b:2";
    try {
      parse_endpoints(list);
      ADD_FAILURE() << "accepted " << list;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ParseEndpoints, RejectsAnEmptyList) {
  EXPECT_THROW(parse_endpoints(""), std::invalid_argument);
  EXPECT_THROW(parse_endpoints("a:1,"), std::invalid_argument);
}

}  // namespace
}  // namespace adafl::cli
