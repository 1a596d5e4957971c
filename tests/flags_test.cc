// The shared command-line parser: value forms, booleans, short flags,
// repeatable lists, rejection of unknown flags and of numbers that are not
// consumed in full, and a usage text generated from the declarations.
#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "src/loadgen/experiment.h"

namespace hovercraft {
namespace {

// argv for Parse: "prog" followed by `args`.
class Argv {
 public:
  Argv(std::initializer_list<const char*> args) : args_{"prog"} {
    args_.insert(args_.end(), args.begin(), args.end());
  }
  int argc() const { return static_cast<int>(args_.size()); }
  const char* const* argv() const { return args_.data(); }

 private:
  std::vector<const char*> args_;
};

Flags::Outcome Parse(Flags& flags, std::initializer_list<const char*> args) {
  const Argv a(args);
  return flags.Parse(a.argc(), a.argv());
}

struct Options {
  std::string name = "default";
  int32_t nodes = 3;
  int64_t offset = -1;
  uint32_t attempts = 0;
  uint64_t seed = 1;
  double rate = 4000;
  TimeNs duration = Millis(150);
  bool verbose = false;
  bool retries = false;
  int32_t jobs = 1;
  std::vector<double> rates = {1, 2};
  std::vector<MembershipEvent> adds;
};

void Declare(Flags& flags, Options& opts) {
  flags.Add("--name=NAME", &opts.name, "a name");
  flags.Add("--alias=NAME", &opts.name, "alias for --name");
  flags.Add("--nodes=N", &opts.nodes, "cluster size");
  flags.Add("--offset=N", &opts.offset, "signed offset");
  flags.Add("--attempts=N", &opts.attempts, "attempt cap");
  flags.Add("--seed=S", &opts.seed, "replay seed");
  flags.Add("--rate=RPS", &opts.rate, "offered load");
  flags.AddDuration("--duration-ms=M", &opts.duration, Millis(1), "load window");
  flags.Add("--verbose", &opts.verbose, "protocol log");
  flags.Add("--retries", &opts.retries, "retransmit\nwith backoff");
  flags.Add("-j N", &opts.jobs, "worker threads");
  flags.AddList("--rates=RPS,...", &opts.rates, ParseNumber<double>, "offered rates");
  flags.AddList("--add-server-at-us=T:N", &opts.adds, ParseMembershipEvent, "scripted adds");
}

class FlagsTest : public ::testing::Test {
 protected:
  FlagsTest() : flags_("prog") { Declare(flags_, opts_); }
  Options opts_;
  Flags flags_;
};

TEST_F(FlagsTest, NoArgumentsKeepTheDefaults) {
  ASSERT_EQ(Parse(flags_, {}), Flags::Outcome::kOk);
  const Options defaults;
  EXPECT_EQ(opts_.name, defaults.name);
  EXPECT_EQ(opts_.nodes, defaults.nodes);
  EXPECT_EQ(opts_.seed, defaults.seed);
  EXPECT_EQ(opts_.duration, defaults.duration);
  EXPECT_FALSE(opts_.verbose);
  EXPECT_EQ(opts_.rates, defaults.rates);
}

TEST_F(FlagsTest, EqualsValuesFillEveryType) {
  ASSERT_EQ(Parse(flags_, {"--name=flap", "--nodes=5", "--offset=-7", "--attempts=4",
                           "--seed=18446744073709551615", "--rate=2.5e3", "--duration-ms=80"}),
            Flags::Outcome::kOk)
      << flags_.error();
  EXPECT_EQ(opts_.name, "flap");
  EXPECT_EQ(opts_.nodes, 5);
  EXPECT_EQ(opts_.offset, -7);
  EXPECT_EQ(opts_.attempts, 4u);
  EXPECT_EQ(opts_.seed, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(opts_.rate, 2500.0);
  EXPECT_EQ(opts_.duration, Millis(80));
}

TEST_F(FlagsTest, AliasesWriteTheSameTargetAndTheLastWins) {
  ASSERT_EQ(Parse(flags_, {"--name=a", "--alias=b"}), Flags::Outcome::kOk);
  EXPECT_EQ(opts_.name, "b");
}

TEST_F(FlagsTest, EmptyStringValueIsAllowed) {
  ASSERT_EQ(Parse(flags_, {"--name="}), Flags::Outcome::kOk);
  EXPECT_EQ(opts_.name, "");
}

TEST_F(FlagsTest, BareBooleansTakeNoValue) {
  ASSERT_EQ(Parse(flags_, {"--verbose"}), Flags::Outcome::kOk);
  EXPECT_TRUE(opts_.verbose);
  EXPECT_FALSE(opts_.retries);
  EXPECT_EQ(Parse(flags_, {"--retries=1"}), Flags::Outcome::kError);
  EXPECT_NE(flags_.error().find("--retries"), std::string::npos) << flags_.error();
}

// "--no-x" clears a setting that defaults on; left out, the default stands.
TEST_F(FlagsTest, NegatedSwitchClearsItsTargetAndOmittingItKeepsTheDefault) {
  bool dedup = true;
  bool watchdog = true;
  Flags flags("prog");
  flags.AddNegated("--no-dedup", &dedup, "disable dedup");
  flags.AddNegated("--no-watchdog", &watchdog, "skip the watchdog");
  ASSERT_EQ(Parse(flags, {"--no-dedup"}), Flags::Outcome::kOk) << flags.error();
  EXPECT_FALSE(dedup);
  EXPECT_TRUE(watchdog);
  EXPECT_EQ(Parse(flags, {"--no-watchdog=1"}), Flags::Outcome::kError);
  EXPECT_NE(flags.error().find("--no-watchdog"), std::string::npos) << flags.error();
  EXPECT_TRUE(watchdog);
  EXPECT_NE(flags.Usage().find("  --no-dedup               disable dedup\n"), std::string::npos)
      << flags.Usage();
}

TEST_F(FlagsTest, ValueFlagWithoutAValueIsAnError) {
  EXPECT_EQ(Parse(flags_, {"--seed"}), Flags::Outcome::kError);
  EXPECT_NE(flags_.error().find("--seed"), std::string::npos) << flags_.error();
}

TEST_F(FlagsTest, ShortFlagTakesTheNextArgument) {
  ASSERT_EQ(Parse(flags_, {"-j", "4", "--verbose"}), Flags::Outcome::kOk);
  EXPECT_EQ(opts_.jobs, 4);
  EXPECT_TRUE(opts_.verbose);
  EXPECT_EQ(Parse(flags_, {"-j"}), Flags::Outcome::kError);
  EXPECT_EQ(Parse(flags_, {"-j", "x"}), Flags::Outcome::kError);
  EXPECT_NE(flags_.error().find("-j x"), std::string::npos) << flags_.error();
}

TEST_F(FlagsTest, RepeatedListFlagsAppend) {
  // The first use replaces the default list; every use appends.
  ASSERT_EQ(Parse(flags_, {"--rates=10,20", "--rates=30"}), Flags::Outcome::kOk);
  EXPECT_EQ(opts_.rates, (std::vector<double>{10, 20, 30}));
  ASSERT_EQ(Parse(flags_, {"--add-server-at-us=500:3,1000:4", "--add-server-at-us=2000:5"}),
            Flags::Outcome::kOk);
  ASSERT_EQ(opts_.adds.size(), 3u);
  EXPECT_EQ(opts_.adds[0].at, Micros(500));
  EXPECT_EQ(opts_.adds[0].node, 3);
  EXPECT_EQ(opts_.adds[2].at, Micros(2000));
  EXPECT_EQ(opts_.adds[2].node, 5);
}

TEST_F(FlagsTest, ListItemsAreValidated) {
  EXPECT_EQ(Parse(flags_, {"--rates=10,,20,"}), Flags::Outcome::kOk);  // empty items skipped
  EXPECT_EQ(Parse(flags_, {"--rates="}), Flags::Outcome::kError);      // but not an empty list
  EXPECT_EQ(Parse(flags_, {"--rates=10,2x"}), Flags::Outcome::kError);
  for (const char* bad : {"--add-server-at-us=500", "--add-server-at-us=:3",
                          "--add-server-at-us=500:", "--add-server-at-us=500:3:7",
                          "--add-server-at-us=5x:3", "--add-server-at-us=500:-1"}) {
    EXPECT_EQ(Parse(flags_, {bad}), Flags::Outcome::kError) << bad;
    EXPECT_NE(flags_.error().find("T:N"), std::string::npos) << flags_.error();
  }
}

TEST_F(FlagsTest, UnknownFlagsAreRejected) {
  for (const char* arg : {"--bogus", "--seedx=1", "--seed-=1", "positional", "-x", "--"}) {
    EXPECT_EQ(Parse(flags_, {arg}), Flags::Outcome::kError) << arg;
    EXPECT_NE(flags_.error().find(arg), std::string::npos) << flags_.error();
  }
}

TEST_F(FlagsTest, MalformedIntegersAreRejected) {
  for (const char* arg : {"--nodes=3x", "--nodes=abc", "--nodes=", "--nodes= 3", "--nodes=1.5",
                          "--nodes=3000000000", "--offset=9223372036854775808",
                          "--duration-ms=80ms"}) {
    EXPECT_EQ(Parse(flags_, {arg}), Flags::Outcome::kError) << arg;
  }
  EXPECT_EQ(Parse(flags_, {"--nodes=3x"}), Flags::Outcome::kError);
  EXPECT_EQ(flags_.error(), "bad --nodes=3x (want an integer)");
}

TEST_F(FlagsTest, MalformedUnsignedValuesAreRejected) {
  for (const char* arg : {"--seed=abc", "--seed=-1", "--seed=12 ", "--seed=18446744073709551616",
                          "--attempts=4294967296", "--attempts=-1"}) {
    EXPECT_EQ(Parse(flags_, {arg}), Flags::Outcome::kError) << arg;
  }
  EXPECT_EQ(Parse(flags_, {"--seed=abc"}), Flags::Outcome::kError);
  EXPECT_EQ(flags_.error(), "bad --seed=abc (want a non-negative integer)");
  EXPECT_EQ(opts_.seed, 1u) << "a rejected value must not be stored";
}

TEST_F(FlagsTest, MalformedDoublesAreRejected) {
  for (const char* arg : {"--rate=abc", "--rate=1.5x", "--rate=", "--rate=1,5"}) {
    EXPECT_EQ(Parse(flags_, {arg}), Flags::Outcome::kError) << arg;
  }
  EXPECT_EQ(Parse(flags_, {"--rate=fast"}), Flags::Outcome::kError);
  EXPECT_EQ(flags_.error(), "bad --rate=fast (want a number)");
}

TEST_F(FlagsTest, HelpIsBuiltInAndErrorsWinOverIt) {
  EXPECT_EQ(Parse(flags_, {"--help"}), Flags::Outcome::kHelp);
  EXPECT_EQ(Parse(flags_, {"-h", "--verbose"}), Flags::Outcome::kHelp);
  EXPECT_EQ(Parse(flags_, {"--help", "--bogus"}), Flags::Outcome::kError);
}

TEST_F(FlagsTest, UsageListsEveryDeclaredFlag) {
  const std::string usage = flags_.Usage();
  EXPECT_EQ(usage.rfind("usage: prog [flags]\n", 0), 0u) << usage;
  for (const char* spec :
       {"--name=NAME", "--alias=NAME", "--nodes=N", "--offset=N", "--attempts=N", "--seed=S",
        "--rate=RPS", "--duration-ms=M", "--verbose", "--retries", "-j N", "--rates=RPS,...",
        "--add-server-at-us=T:N"}) {
    EXPECT_NE(usage.find(std::string("  ") + spec), std::string::npos) << spec << "\n" << usage;
  }
  EXPECT_NE(usage.find("  -h, --help"), std::string::npos) << usage;
  // Help text sits in one column; continuation lines are indented to it.
  EXPECT_NE(usage.find("  --seed=S                 replay seed\n"), std::string::npos) << usage;
  EXPECT_NE(usage.find("  --add-server-at-us=T:N   scripted adds\n"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("retransmit\n" + std::string(27, ' ') + "with backoff\n"),
            std::string::npos)
      << usage;
}

TEST(FlagsParsersTest, WholeStringNumbers) {
  int64_t i = 0;
  EXPECT_TRUE(ParseNumber("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseNumber("+42", &i));
  EXPECT_FALSE(ParseNumber("42 ", &i));
  uint64_t u = 0;
  EXPECT_TRUE(ParseNumber("42", &u));
  EXPECT_FALSE(ParseNumber("-42", &u));
  double d = 0;
  EXPECT_TRUE(ParseNumber("0.25", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_FALSE(ParseNumber("0.25.", &d));
}

TEST(FlagsParsersTest, SplitFieldsWantsAnExactCount) {
  std::string_view fields[3];
  ASSERT_TRUE(SplitFields("a:b:c", ':', fields));
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
  EXPECT_TRUE(SplitFields("::", ':', fields));
  EXPECT_FALSE(SplitFields("a:b", ':', fields));
  EXPECT_FALSE(SplitFields("a:b:c:d", ':', fields));
}

TEST(FlagsParsersTest, ClusterModeFlagsRoundTrip) {
  for (ClusterMode mode : {ClusterMode::kUnreplicated, ClusterMode::kVanillaRaft,
                           ClusterMode::kHovercRaft, ClusterMode::kHovercRaftPP}) {
    ClusterMode parsed = ClusterMode::kUnreplicated;
    ASSERT_TRUE(ParseClusterMode(ClusterModeFlag(mode), &parsed)) << ClusterModeFlag(mode);
    EXPECT_EQ(parsed, mode);
  }
  ClusterMode parsed = ClusterMode::kUnreplicated;
  EXPECT_FALSE(ParseClusterMode("HovercRaft", &parsed));
  EXPECT_FALSE(ParseClusterMode("", &parsed));
  EXPECT_STREQ(ClusterModeFlag(ClusterMode::kHovercRaftPP), "hovercraft++");
}

}  // namespace
}  // namespace hovercraft
