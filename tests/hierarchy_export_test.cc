#include "nucleus/io/hierarchy_export.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

NucleusHierarchy Figure2Hierarchy() {
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kFnd;
  return Decompose(testing_util::PaperFigure2Graph(), options).hierarchy;
}

TEST(HierarchyToDot, ContainsAllNodesAndEdges) {
  const NucleusHierarchy h = Figure2Hierarchy();
  const std::string dot = HierarchyToDot(h);
  EXPECT_NE(dot.find("digraph nucleus_hierarchy"), std::string::npos);
  // 4 nodes: root, 2-core, two 3-cores; 3 edges.
  std::size_t arrows = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 3u);
  EXPECT_NE(dot.find("k=2"), std::string::npos);
  EXPECT_NE(dot.find("k=3"), std::string::npos);
  EXPECT_NE(dot.find("root"), std::string::npos);
}

TEST(HierarchyToDot, MinSubtreeFilterSplicesEdges) {
  const NucleusHierarchy h = Figure2Hierarchy();
  ExportOptions options;
  options.min_subtree_members = 5;  // hides the two 3-cores (4 members each)
  const std::string dot = HierarchyToDot(h, options);
  EXPECT_EQ(dot.find("k=3"), std::string::npos);
  EXPECT_NE(dot.find("k=2"), std::string::npos);
}

TEST(HierarchyToDot, MembersIncludedOnRequest) {
  const NucleusHierarchy h = Figure2Hierarchy();
  ExportOptions options;
  options.include_members = true;
  const std::string dot = HierarchyToDot(h, options);
  EXPECT_NE(dot.find("members="), std::string::npos);
}

TEST(HierarchyToJson, ParsesStructurally) {
  const NucleusHierarchy h = Figure2Hierarchy();
  const std::string json = HierarchyToJson(h);
  EXPECT_NE(json.find("\"root\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"max_lambda\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"num_nuclei\": 3"), std::string::npos);
  // Balanced braces and brackets (cheap well-formedness check).
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(HierarchyToJson, MembersIncludedOnRequest) {
  const NucleusHierarchy h = Figure2Hierarchy();
  ExportOptions options;
  options.include_members = true;
  const std::string json = HierarchyToJson(h, options);
  EXPECT_NE(json.find("\"members\": ["), std::string::npos);
}

TEST(JsonEscapeFn, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
}

TEST(HierarchyToJson, NameFieldIsEscaped) {
  const NucleusHierarchy h = Figure2Hierarchy();
  ExportOptions options;
  options.name = "data\"set\\v1\n(truss)";
  const std::string json = HierarchyToJson(h, options);
  EXPECT_NE(json.find("\"name\": \"data\\\"set\\\\v1\\n(truss)\""),
            std::string::npos);
  // No raw newline may survive inside the name string.
  EXPECT_EQ(json.find("v1\n(truss)"), std::string::npos);
}

TEST(HierarchyToDot, NameLabelIsEscaped) {
  const NucleusHierarchy h = Figure2Hierarchy();
  ExportOptions options;
  options.name = "two \"cores\"";
  const std::string dot = HierarchyToDot(h, options);
  EXPECT_NE(dot.find("label=\"two \\\"cores\\\"\""), std::string::npos);
}

TEST(HierarchyToJson, MinSubtreeFilterDropsAndSplices) {
  const NucleusHierarchy h = Figure2Hierarchy();
  ExportOptions options;
  options.min_subtree_members = 5;  // hides the two 3-cores (4 members each)
  const std::string json = HierarchyToJson(h, options);
  EXPECT_EQ(json.find("\"lambda\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"lambda\": 2"), std::string::npos);
  // The surviving 2-core node keeps no children (both were hidden).
  EXPECT_NE(json.find("\"lambda\": 2, \"parent\": 0"), std::string::npos);
  EXPECT_EQ(json.find("\"children\": [2"), std::string::npos);
}

TEST(HierarchyToJson, DefaultOptionsEmitEveryNode) {
  const NucleusHierarchy h = Figure2Hierarchy();
  const std::string json = HierarchyToJson(h);
  // 4 nodes: root + 2-core + two 3-cores.
  std::size_t ids = 0;
  for (std::size_t pos = json.find("{\"id\": "); pos != std::string::npos;
       pos = json.find("{\"id\": ", pos + 1)) {
    ++ids;
  }
  EXPECT_EQ(ids, 4u);
}

TEST(HierarchyToJson, SnapshotLoadedHierarchyExportsIdentically) {
  // The JSON export is a full structural serialization (ids, parents,
  // children, members): byte equality across a snapshot round trip is a
  // second, independent witness that .nucsnap loads are lossless.
  const Graph g = Caveman(3, 6, 3, 5);
  DecomposeOptions options;
  options.family = Family::kTruss23;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult result = Decompose(g, options);
  const SnapshotData original = MakeSnapshot(g, options, result, false);
  const std::string path = testing_util::TempPath("export_check.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(original, path).ok());
  StatusOr<SnapshotData> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ExportOptions export_options;
  export_options.include_members = true;
  export_options.name = "caveman(3,6)";
  EXPECT_EQ(HierarchyToJson(result.hierarchy, export_options),
            HierarchyToJson(loaded->hierarchy, export_options));
  EXPECT_EQ(HierarchyToDot(result.hierarchy, export_options),
            HierarchyToDot(loaded->hierarchy, export_options));
  std::remove(path.c_str());
}

TEST(WriteStringToFile, RoundTrips) {
  const std::string path = testing_util::TempPath("export_test.txt");
  ASSERT_TRUE(WriteStringToFile("hello\nworld\n", path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(WriteStringToFile, BadPathFails) {
  EXPECT_FALSE(WriteStringToFile("x", "/nonexistent/dir/file.txt").ok());
}

}  // namespace
}  // namespace nucleus
