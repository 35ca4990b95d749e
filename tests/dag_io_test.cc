#include "causal/dag_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/german.h"
#include "data/stackoverflow.h"
#include "util/random.h"

namespace faircap {
namespace {

TEST(DagIoTest, ParseEdgesAndChains) {
  const auto dag = ParseDag("A -> B;\nB -> C -> D\n");
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();
  EXPECT_EQ(dag->num_nodes(), 4u);
  EXPECT_EQ(dag->num_edges(), 3u);
  EXPECT_TRUE(dag->HasEdge(*dag->IndexOf("A"), *dag->IndexOf("B")));
  EXPECT_TRUE(dag->HasEdge(*dag->IndexOf("C"), *dag->IndexOf("D")));
}

TEST(DagIoTest, CommentsAndBlankLinesIgnored) {
  const auto dag = ParseDag(
      "# a comment\n"
      "\n"
      "X -> Y  # trailing comment\n"
      "  ;;  \n");
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_nodes(), 2u);
  EXPECT_EQ(dag->num_edges(), 1u);
}

TEST(DagIoTest, IsolatedNodeStatement) {
  const auto dag = ParseDag("Lonely;\nA -> B\n");
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_nodes(), 3u);
  EXPECT_TRUE(dag->Contains("Lonely"));
  EXPECT_TRUE(dag->Parents(*dag->IndexOf("Lonely")).empty());
}

TEST(DagIoTest, SemicolonsSeparateStatementsOnOneLine) {
  const auto dag = ParseDag("A -> B; C -> D; A -> D");
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_edges(), 3u);
}

TEST(DagIoTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseDag("A -> ;").ok());        // dangling arrow
  EXPECT_FALSE(ParseDag("-> B").ok());          // missing source
  EXPECT_FALSE(ParseDag("A B -> C").ok());      // whitespace in name
  EXPECT_FALSE(ParseDag("A -> A").ok());        // self-loop
  EXPECT_FALSE(ParseDag("A -> B; B -> A").ok());  // cycle
  EXPECT_FALSE(ParseDag("A -> B; A -> B").ok());  // duplicate edge
}

TEST(DagIoTest, RoundTripThroughText) {
  const auto original = ParseDag("A -> B; B -> C; Solo;");
  ASSERT_TRUE(original.ok());
  const std::string text = DagToText(*original);
  const auto reparsed = ParseDag(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ(reparsed->num_nodes(), original->num_nodes());
  EXPECT_EQ(reparsed->num_edges(), original->num_edges());
  EXPECT_TRUE(reparsed->Contains("Solo"));
}

TEST(DagIoTest, ReadFromFile) {
  const std::string path = testing::TempDir() + "/faircap_dag_test.txt";
  {
    std::ofstream out(path);
    out << "U -> V\nV -> W\n";
  }
  const auto dag = ReadDagFile(path);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_edges(), 2u);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadDagFile("/nonexistent/dag.txt").ok());
}

// ---------------------------------------------------------------------
// Seeded mutation fuzz. DAG texts in the dialect (the examples above and
// the serialized german / stackoverflow SCM DAGs) are mutated by byte
// flips, inserted arrows, separators, comment markers, CRs and
// whitespace, truncation, and duplicated or self edges. Every mutant must
// either fail with a Status, or parse to an acyclic DAG whose DagToText
// serialization parses back to the same node names and edges. The seed
// and iteration count are fixed, so every run checks the same inputs; a
// failure prints the input that caused it.

constexpr size_t kFuzzIterations = 20000;
constexpr size_t kMaxReportedFailures = 5;

const char* const kTokens[] = {"->", ";", "#", "\r", " ", "\t", "\n"};

std::vector<std::string> FuzzSeeds() {
  std::vector<std::string> seeds = {
      "A -> B;\nB -> C -> D\n",
      "# a comment\n\nX -> Y  # trailing comment\n  ;;  \n",
      "Lonely;\nA -> B\n",
      "A -> B; C -> D; A -> D",
      "Gender -> Education;\nGender -> Income;\nAgeGroup -> Income;\n"
      "Education -> Income;\nRole -> Income;\n",
  };
  const Result<Scm> german = MakeGermanScm();
  const Result<Scm> so = MakeStackOverflowScm();
  for (const Result<Scm>* scm : {&german, &so}) {
    EXPECT_TRUE(scm->ok());
    if (!scm->ok()) continue;
    const Result<CausalDag> dag = (*scm)->Dag();
    EXPECT_TRUE(dag.ok());
    if (dag.ok()) seeds.push_back(DagToText(*dag));
  }
  return seeds;
}

// One statement of `text` (the span between separators), or "" if none.
std::string RandomStatement(const std::string& text, Rng* rng) {
  if (text.empty()) return "";
  size_t begin = rng->NextBounded(text.size());
  while (begin > 0 && text[begin - 1] != ';' && text[begin - 1] != '\n') {
    --begin;
  }
  size_t end = begin;
  while (end < text.size() && text[end] != ';' && text[end] != '\n') ++end;
  return text.substr(begin, end - begin);
}

// A node-name-like token of `text`: the word around a random position.
std::string RandomWord(const std::string& text, Rng* rng) {
  const auto is_name = [](char c) {
    return c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != ';' &&
           c != '#' && c != '-' && c != '>';
  };
  if (text.empty()) return "N";
  size_t begin = rng->NextBounded(text.size());
  while (begin > 0 && is_name(text[begin - 1])) --begin;
  size_t end = begin;
  while (end < text.size() && is_name(text[end])) ++end;
  return end > begin ? text.substr(begin, end - begin) : "N";
}

std::string Mutate(std::string s, Rng* rng) {
  const size_t edits = 1 + rng->NextBounded(3);
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = rng->NextBounded(s.size() + 1);
    switch (rng->NextBounded(5)) {
      case 0:  // flip one bit of one byte
        if (!s.empty()) {
          s[pos % s.size()] ^= static_cast<char>(1u << rng->NextBounded(8));
        }
        break;
      case 1:
        s.insert(pos, kTokens[rng->NextBounded(std::size(kTokens))]);
        break;
      case 2:  // truncate
        s.resize(pos);
        break;
      case 3:  // duplicate a statement (a duplicate edge, if it has one)
        s.insert(pos, ";" + RandomStatement(s, rng) + ";");
        break;
      default: {  // self edge
        const std::string name = RandomWord(s, rng);
        s.insert(pos, ";" + name + " -> " + name + ";");
        break;
      }
    }
  }
  return s;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

using EdgeSet = std::set<std::pair<std::string, std::string>>;

EdgeSet EdgesOf(const CausalDag& dag) {
  EdgeSet edges;
  for (size_t u = 0; u < dag.num_nodes(); ++u) {
    for (const size_t v : dag.Children(u)) {
      edges.emplace(dag.name(u), dag.name(v));
    }
  }
  return edges;
}

// Empty when `dag` is acyclic and its text form parses back to the same
// node names and edges.
std::string CheckRoundTrip(const CausalDag& dag) {
  if (dag.TopologicalOrder().size() != dag.num_nodes()) return "cyclic DAG";
  const std::string text = DagToText(dag);
  const Result<CausalDag> again = ParseDag(text);
  if (!again.ok()) {
    return "re-parse failed: " + again.status().ToString() + "\n  text: \"" +
           Escape(text) + "\"";
  }
  const std::set<std::string> names(dag.node_names().begin(),
                                    dag.node_names().end());
  const std::set<std::string> names_again(again->node_names().begin(),
                                          again->node_names().end());
  if (names != names_again || again->num_nodes() != dag.num_nodes()) {
    return "node names differ after round trip";
  }
  if (EdgesOf(*again) != EdgesOf(dag) ||
      again->num_edges() != dag.num_edges()) {
    return "edges differ after round trip";
  }
  return "";
}

TEST(DagIoTest, SeededMutantsRejectOrRoundTrip) {
  const std::vector<std::string> seeds = FuzzSeeds();
  ASSERT_EQ(seeds.size(), 7u);
  Rng rng(20261017);
  size_t failures = 0;
  size_t parsed = 0;
  for (size_t it = 0; it < kFuzzIterations; ++it) {
    const std::string input =
        Mutate(seeds[rng.NextBounded(seeds.size())], &rng);
    const Result<CausalDag> dag = ParseDag(input);
    if (!dag.ok()) continue;
    ++parsed;
    const std::string diff = CheckRoundTrip(*dag);
    if (diff.empty()) continue;
    ADD_FAILURE() << "iteration " << it << ": " << diff << "\n  input: \""
                  << Escape(input) << "\"";
    if (++failures >= kMaxReportedFailures) break;
  }
  // The mutation mix must reach both accepted and rejected inputs.
  EXPECT_GT(parsed, kFuzzIterations / 10);
  EXPECT_LT(parsed, kFuzzIterations - kFuzzIterations / 10);
}

}  // namespace
}  // namespace faircap
