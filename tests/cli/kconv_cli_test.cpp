// End-to-end tests of the built kconv_cli binary.
//
// kconv-xray smoke (docs/MODEL.md §10): the static-only mode reports with
// zero block execution and a well-formed static_analysis block, the combined
// mode's static counters equal the dynamic ones, the pruned autotune keeps
// the full sweep's winner, and malformed flag combinations exit 2. On top of
// that, one document of every `--json` kind parses with the strict test
// reader, including a serve run whose --telemetry-out path needs escaping.
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/support/json_reader.hpp"

namespace kconv {
namespace {

namespace fs = std::filesystem;
using testsupport::field;
using testsupport::JsonReader;
using testsupport::JsonValue;

struct CliRun {
  int exit_code = -1;
  std::string out;  // stdout; stderr is discarded
};

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  return q + "'";
}

CliRun run_cli(const std::vector<std::string>& args) {
  std::string cmd = shell_quote(KCONV_CLI_PATH);
  for (const std::string& a : args) cmd += " " + shell_quote(a);
  cmd += " 2>/dev/null";
  CliRun r;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, n);
  const int status = pclose(p);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// Runs the CLI, expects exit 0 and parses stdout as one JSON document.
std::shared_ptr<JsonValue> run_json(const std::vector<std::string>& args) {
  const CliRun r = run_cli(args);
  EXPECT_EQ(r.exit_code, 0) << r.out;
  return JsonReader(r.out).parse();
}

std::string fresh_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("kconv_cli_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(KconvCliXray, StaticOnlyTextReportPasses) {
  const CliRun r =
      run_cli({"--xray", "--algo", "special", "--c", "1", "--f", "32", "--k",
               "3"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("=== kconv-xray ==="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("verdict: PASS"), std::string::npos) << r.out;
}

TEST(KconvCliXray, StaticOnlyJsonSchema) {
  const auto root = run_json({"--xray", "--json", "--algo", "general", "--c",
                              "16", "--f", "32", "--k", "3"});
  const JsonValue& d = field(*root, "static_analysis");
  for (const char* key : {"kernel", "signature", "blocks_total",
                          "blocks_analyzed", "predicted", "sites", "races",
                          "findings", "clean"}) {
    EXPECT_EQ(d.object.count(key), 1u) << "static_analysis missing " << key;
  }
  EXPECT_EQ(field(d, "blocks_analyzed").number,
            field(d, "blocks_total").number);
  ASSERT_EQ(field(d, "clean").type, JsonValue::Type::Bool);
  EXPECT_TRUE(field(d, "clean").boolean);
  for (const auto& race : field(d, "races").array) {
    EXPECT_EQ(field(*race, "verdict").str, "proven-disjoint");
  }
}

TEST(KconvCliXray, CombinedModeStaticEqualsDynamic) {
  for (const std::string algo : {"special", "general", "implicit-gemm"}) {
    const std::string c = algo == "special" ? "1" : "16";
    const auto root = run_json({"--xray", "--check", "--json", "--algo", algo,
                                "--c", c, "--f", "32", "--k", "3", "--n",
                                "40"});
    const JsonValue& cc = field(*root, "static_cross_check");
    EXPECT_TRUE(field(cc, "ok").boolean) << algo;
    EXPECT_TRUE(field(cc, "mismatches").array.empty()) << algo;
    EXPECT_EQ(field(field(field(*root, "static_analysis"), "predicted"),
                    "gm_sectors")
                  .number,
              field(*root, "gm_sectors").number)
        << algo;
  }
  const auto analytic = run_json({"--xray", "--analytic", "--json", "--algo",
                                  "general", "--c", "16", "--f", "32", "--k",
                                  "3", "--n", "40"});
  EXPECT_TRUE(field(field(*analytic, "static_cross_check"), "ok").boolean);
}

TEST(KconvCliXray, PrunedAutotuneKeepsTheFullSweepWinner) {
  const std::vector<std::string> shape = {"--c", "16", "--f", "32",
                                          "--k", "3",  "--n", "32"};
  std::vector<std::string> full_args = {"--autotune", "--json"};
  full_args.insert(full_args.end(), shape.begin(), shape.end());
  std::vector<std::string> pruned_args = {"--autotune", "--static-prune",
                                          "--json"};
  pruned_args.insert(pruned_args.end(), shape.begin(), shape.end());
  const auto full = run_json(full_args);
  const auto pruned = run_json(pruned_args);

  const JsonValue& fb = field(*full, "best");
  const JsonValue& pb = field(*pruned, "best");
  ASSERT_EQ(fb.object.size(), pb.object.size());
  for (const auto& [key, v] : fb.object) {
    EXPECT_EQ(field(pb, key).number, v->number) << "best." << key;
  }
  EXPECT_GT(field(*pruned, "pruned").number, 0.0);
  EXPECT_LE(field(*pruned, "evaluated").number * 2,
            field(*full, "evaluated").number + 1);
}

TEST(KconvCliXray, MalformedFlagsExitTwo) {
  const std::vector<std::vector<std::string>> probes = {
      {"--xray", "--serve", "--network", "lenet"},
      {"--xray", "--autotune", "--c", "16", "--f", "32", "--k", "3"},
      {"--xray", "--sample", "4", "--c", "16", "--f", "32", "--k", "3"},
      {"--xray", "--algo", "naive", "--c", "16", "--f", "32", "--k", "3"},
      {"--static-prune", "--c", "16", "--f", "32", "--k", "3"},
  };
  for (const auto& args : probes) {
    std::string shown;
    for (const std::string& a : args) shown += a + " ";
    EXPECT_EQ(run_cli(args).exit_code, 2) << shown;
  }
}

TEST(KconvCliJson, EveryDocumentKindParses) {
  const std::string dir = fresh_dir("json_kinds");
  const std::vector<std::string> special = {"--algo", "special", "--c", "1",
                                            "--f",    "32",      "--k", "3",
                                            "--n",    "64"};
  const std::vector<std::string> general = {"--algo", "general", "--c", "16",
                                            "--f",    "32",      "--k", "3",
                                            "--n",    "40"};
  auto with = [](std::vector<std::string> base,
                 const std::vector<std::string>& extra) {
    base.insert(base.end(), extra.begin(), extra.end());
    return base;
  };
  const std::vector<std::vector<std::string>> docs = {
      with(special, {"--json"}),
      with(special, {"--check", "--json"}),
      with(special, {"--profile", "--json"}),
      with(general, {"--replay", "--plan-cache", dir + "/plans", "--json"}),
      with(general, {"--devices", "2", "--shard", "spatial", "--json"}),
      with(general, {"--xray", "--json"}),
      with(general, {"--xray", "--check", "--json"}),
      with(special, {"--autotune", "--json"}),
  };
  for (const auto& args : docs) {
    std::string shown;
    for (const std::string& a : args) shown += a + " ";
    SCOPED_TRACE(shown);
    const auto root = run_json(args);
    EXPECT_EQ(root->type, JsonValue::Type::Object);
  }

  const std::string trace = dir + "/trace.json";
  EXPECT_EQ(run_cli(with(general, {"--profile", "--trace-out", trace}))
                .exit_code,
            0);
  EXPECT_EQ(JsonReader(read_file(trace)).parse()->type,
            JsonValue::Type::Object);
}

TEST(KconvCliJson, ServeTelemetryDirWithQuotesRoundTrips) {
  const std::string tel = fresh_dir("serve") + "/tel\"q\\x";
  const auto root = run_json({"--serve", "--network", "lenet", "--requests",
                              "2", "--json", "--telemetry-out", tel});
  const JsonValue& t = field(field(*root, "serve"), "telemetry");
  EXPECT_EQ(field(t, "dir").str, tel);

  // The JSON Lines streams parse line by line and match the block's counts.
  using Stream = std::pair<const char*, const char*>;  // file, count key
  for (const auto& [file, key] : {Stream{"events.jsonl", "events"},
                                  Stream{"metrics.jsonl", "metric_groups"}}) {
    std::ifstream in(tel + "/" + file);
    ASSERT_TRUE(in.good()) << file;
    std::string line;
    double lines = 0;
    while (std::getline(in, line)) {
      EXPECT_EQ(JsonReader(line).parse()->type, JsonValue::Type::Object);
      ++lines;
    }
    EXPECT_EQ(lines, field(t, key).number) << file;
  }
  EXPECT_EQ(JsonReader(read_file(tel + "/trace.json")).parse()->type,
            JsonValue::Type::Object);
}

}  // namespace
}  // namespace kconv
