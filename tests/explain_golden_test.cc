// EXPLAIN output is part of the engine's contract: deterministic text (no
// clocks, no pointers, no machine-dependent numbers), so it can be golden
// tested. If a planner or rendering change intentionally alters the output,
// regenerate the goldens with
//   EQL_UPDATE_GOLDEN=1 ./build/explain_golden_test
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "eval/engine.h"
#include "test_util.h"

namespace eql {
namespace {

std::filesystem::path GoldenPath(const std::string& name) {
  return std::filesystem::path(EQL_SOURCE_DIR) / "tests" / "golden" / name;
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const auto path = GoldenPath(name);
  if (std::getenv("EQL_UPDATE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with EQL_UPDATE_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual) << "EXPLAIN drifted from " << path
                               << "; regenerate with EQL_UPDATE_GOLDEN=1 "
                                  "if the change is intentional";
}

// A BGP plus one dependent and one independent CTP exercises every stage
// kind, the seed-source rendering and the exec-order footer.
constexpr const char* kQuery =
    "SELECT ?p ?t1 ?t2 WHERE { ?p \"citizenOf\" \"USA\" . "
    "CONNECT(?p, \"France\" -> ?t1) MAX 3 "
    "CONNECT(\"Elon\", \"Doug\" -> ?t2) MAX 2 }";

TEST(ExplainGolden, Estimates) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto prepared = engine.Prepare(kQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  CheckGolden("explain_estimates.txt", prepared->Explain());
}

TEST(ExplainGolden, ActualsAfterExecution) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto prepared = engine.Prepare(kQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto r = prepared->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  CheckGolden("explain_actuals.txt", prepared->Explain(*r));
}

}  // namespace
}  // namespace eql
