// Seeded mutation fuzz for the CSV readers. Small CSVs are mutated by
// inserting or deleting quotes, delimiters, CRs, newlines, null tokens,
// and digits; every mutant is run through
//   - schema inference (InferCsvSchema's stream pass, at a random read
//     window) against the legacy istream oracle in tests/reference: the
//     same schema, or the same error code and message;
//   - when inference succeeds, the streaming reader (StreamCsvFromString,
//     at a random chunk size) against the legacy row loader
//     (LegacyParseCsv in tests/reference) under that schema: bit-identical
//     tables, or the same error code;
//   - and the parallel (segmented) reader, three threads on one borrowed
//     TaskScheduler at a random segment size, against the sequential
//     streaming reader: bit-identical tables, or the same error code and
//     message.
// The iteration count and seed are fixed, so every run checks the same
// inputs; a failure prints the input that caused it.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "csv_corpus.h"
#include "dataframe/csv.h"
#include "dataframe/csv_scan.h"
#include "ingest/chunked_csv_reader.h"
#include "reference/legacy_csv.h"
#include "util/random.h"
#include "util/task_scheduler.h"

namespace faircap {
namespace {

constexpr size_t kIterations = 20000;
constexpr size_t kMaxReportedFailures = 5;

const char* const kSeeds[] = {
    kEdgeCaseCsv,
    "a,b,c\n1,2,3\n4.5,-6,7e1\n8,NA,9\n",
    "id,name,score\n1,\"x\",2\n2,\"y,z\",3\n3,\"q\"\"r\",\n",
    "x,y\r\n1,a\r\n2,b\r\n\r\n3,c\r\n",
    "v\n1\n\n2\nNA\n3",
    "k,v\n\"1\",\"2\"\n\" 3 \",4\n5,\"6\n7\"\n",
};

const char* const kTokens[] = {"\"", ",", "\r", "\n", "NA", "0", "7", "-"};

std::string Mutate(std::string s, Rng* rng) {
  const size_t edits = 1 + rng->NextBounded(4);
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = rng->NextBounded(s.size() + 1);
    if (rng->NextBernoulli(0.6) || s.empty()) {
      s.insert(pos, kTokens[rng->NextBounded(std::size(kTokens))]);
    } else {
      s.erase(std::min(pos, s.size() - 1), 1 + rng->NextBounded(2));
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
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string Describe(const Status& st) {
  return st.ok() ? "OK" : st.ToString();
}

// Empty when the schemas agree (or the failures match exactly).
std::string CompareInference(const Result<Schema>& want,
                             const Result<Schema>& got) {
  if (want.ok() != got.ok() ||
      (!want.ok() && (want.status().code() != got.status().code() ||
                      want.status().message() != got.status().message()))) {
    return "inference: oracle " + Describe(want.status()) + ", new " +
           Describe(got.status());
  }
  if (!want.ok()) return "";
  if (want->num_attributes() != got->num_attributes()) return "arity differs";
  for (size_t i = 0; i < want->num_attributes(); ++i) {
    if (want->attribute(i).name != got->attribute(i).name ||
        want->attribute(i).type != got->attribute(i).type) {
      return "column " + std::to_string(i) + " differs";
    }
  }
  return "";
}

// Empty when the tables are bit-identical: codes (not just category
// names), nulls, and numeric payloads.
std::string CompareFrames(const DataFrame& a, const DataFrame& b) {
  if (a.num_rows() != b.num_rows()) {
    return "rows " + std::to_string(a.num_rows()) + " vs " +
           std::to_string(b.num_rows());
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    if (ca.type() == AttrType::kCategorical) {
      if (ca.num_categories() != cb.num_categories()) {
        return "column " + std::to_string(c) + " dictionary size";
      }
      for (size_t code = 0; code < ca.num_categories(); ++code) {
        if (ca.CategoryName(static_cast<int32_t>(code)) !=
            cb.CategoryName(static_cast<int32_t>(code))) {
          return "column " + std::to_string(c) + " dictionary order";
        }
      }
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const bool same =
          ca.type() == AttrType::kCategorical
              ? ca.code(r) == cb.code(r)
              : ca.IsNull(r) == cb.IsNull(r) &&
                    (ca.IsNull(r) || ca.numeric(r) == cb.numeric(r));
      if (!same) {
        return "cell (" + std::to_string(r) + ", " + std::to_string(c) + ")";
      }
    }
  }
  return "";
}

// Empty when the two results are the same table or the same failure.
// `code_only` compares failures by status code alone (the legacy oracle
// counts physical lines in its messages, the streaming reader records).
std::string CompareParses(const Result<DataFrame>& want,
                          const Result<DataFrame>& got, bool code_only) {
  if (want.ok() != got.ok() ||
      (!want.ok() &&
       (want.status().code() != got.status().code() ||
        (!code_only && want.status().message() != got.status().message())))) {
    return Describe(want.status()) + " vs " + Describe(got.status());
  }
  return want.ok() ? CompareFrames(*want, *got) : "";
}

// Read sizes for one check: inference windows, streaming chunks, and
// parallel segments, in bytes.
struct Sizes {
  size_t window;
  size_t chunk;
  size_t segment;
};

// What one check reached.
struct Outcome {
  bool inferred = false;      // inference succeeded
  bool parse_failed = false;  // the parses failed (and agreed on it)
};

// Empty when every reader agrees on `content`. When inference succeeds,
// the legacy and streaming row readers parse under the inferred schema.
// The parallel reader is checked against the sequential one under that
// schema, or, when inference fails, under `fallback` (the seed's schema),
// so it sees malformed input too: ragged rows, unterminated quotes,
// non-numeric cells, damaged headers. (The legacy oracle is not compared
// there: on a record that is both non-numeric and holds a quote that
// never closes it reports the quote, the streaming reader the cell.)
std::string CheckInput(const std::string& content, const Schema& fallback,
                       const Sizes& sizes, TaskScheduler* scheduler,
                       Outcome* outcome = nullptr) {
  const Result<Schema> want = LegacyInferSchema(content);
  std::istringstream in(content);
  const Result<Schema> got =
      csv_scan::InferSchemaFromStream(in, CsvOptions(), sizes.window);
  std::string diff = CompareInference(want, got);
  if (!diff.empty()) return diff;
  const Schema& schema = want.ok() ? *want : fallback;

  IngestOptions options;
  options.chunk_bytes = sizes.chunk;
  const Result<DataFrame> streamed =
      StreamCsvFromString(content, schema, options);
  if (want.ok()) {
    diff = CompareParses(LegacyParseCsv(content, schema), streamed,
                         /*code_only=*/true);
    if (!diff.empty()) return "parse (legacy vs stream): " + diff;
  }

  options.chunk_bytes = sizes.segment;
  options.num_threads = 3;
  options.scheduler = scheduler;
  const Result<DataFrame> parallel =
      StreamCsvFromString(content, schema, options);
  diff = CompareParses(streamed, parallel, /*code_only=*/false);
  if (!diff.empty()) return "parse (stream vs parallel): " + diff;
  if (outcome != nullptr) {
    outcome->inferred = want.ok();
    outcome->parse_failed = !streamed.ok();
  }
  return "";
}

Schema SchemaOf(const std::string& content) {
  return LegacyInferSchema(content).ValueOrDie();
}

TEST(CsvFuzzTest, MutantsAgreeWithLegacyReaders) {
  TaskScheduler scheduler(3);
  std::vector<Schema> seed_schemas;
  for (const char* seed : kSeeds) seed_schemas.push_back(SchemaOf(seed));
  Rng rng(20250611);
  // Segment sizes draw from their own stream: the mutants and their window
  // and chunk sizes do not depend on the parallel leg.
  Rng segment_rng(7);
  size_t failures = 0;
  size_t inferred = 0;
  size_t parse_failed = 0;
  for (size_t it = 0; it < kIterations; ++it) {
    const size_t seed = rng.NextBounded(std::size(kSeeds));
    const std::string input = Mutate(kSeeds[seed], &rng);
    Sizes sizes{};
    sizes.window = rng.NextBernoulli(0.5) ? 1 + rng.NextBounded(16)
                                          : csv_scan::kDefaultWindowBytes;
    sizes.chunk = 1 + rng.NextBounded(32);
    sizes.segment = 1 + segment_rng.NextBounded(32);
    Outcome outcome;
    const std::string diff =
        CheckInput(input, seed_schemas[seed], sizes, &scheduler, &outcome);
    inferred += outcome.inferred ? 1 : 0;
    parse_failed += outcome.parse_failed ? 1 : 0;
    if (diff.empty()) continue;
    ADD_FAILURE() << "iteration " << it << ": " << diff << "\n  input: \""
                  << Escape(input) << "\"";
    if (++failures >= kMaxReportedFailures) break;
  }
  // The mutation mix must reach both clean parses and parse errors.
  EXPECT_GT(inferred, kIterations / 4);
  EXPECT_GT(parse_failed, kIterations / 10);
}

TEST(CsvFuzzTest, SeedsAndFoundInputsAgreeAtEveryChunkSize) {
  TaskScheduler scheduler(3);
  // Each input with the CSV its fallback schema is inferred from.
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const char* seed : kSeeds) inputs.emplace_back(seed, seed);
  // An extra cell before a quote that never closes: an unterminated
  // quote (IOError) for every reader, not a ragged row.
  inputs.emplace_back("a,b\n1,2\n3,4,5\"\n6,7\n", "a,b\n1,2\n");
  // A quoted field whose newline falls past the chunk edge: the cells
  // before it must be rolled back before the record is re-read.
  inputs.emplace_back("k,v\n\"1\",\"\n2\"\n\" 3 \",4\n", "k,v\n1,2\n");
  for (const auto& [input, schema_csv] : inputs) {
    const Schema fallback = SchemaOf(schema_csv);
    for (size_t size = 1; size <= 24; ++size) {
      EXPECT_EQ(CheckInput(input, fallback, {size, size, size}, &scheduler),
                "")
          << "size " << size << ", input \"" << Escape(input) << "\"";
    }
  }
}

}  // namespace
}  // namespace faircap
