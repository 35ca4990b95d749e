// Seeded mutation fuzz for the CSV readers. Small CSVs are mutated by
// inserting or deleting quotes, delimiters, CRs, newlines, null tokens,
// and digits; every mutant is run through
//   - schema inference (InferCsvSchema's stream pass, at a random read
//     window) against the legacy istream oracle in tests/reference: the
//     same schema, or the same error code and message;
//   - when inference succeeds, the streaming reader (StreamCsvFromString,
//     at a random chunk size) against the legacy row loader (ParseCsv)
//     under that schema: bit-identical tables, or the same error code.
// The iteration count and seed are fixed, so every run checks the same
// inputs; a failure prints the input that caused it.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "csv_corpus.h"
#include "dataframe/csv.h"
#include "dataframe/csv_scan.h"
#include "ingest/chunked_csv_reader.h"
#include "reference/legacy_csv_infer.h"
#include "util/random.h"

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

// Empty when every reader agrees on `content`, read in `window`-byte
// inference windows and `chunk`-byte streaming chunks. `inferred`, when
// given, tells whether inference succeeded (so the parses were compared).
std::string CheckInput(const std::string& content, size_t window,
                       size_t chunk, bool* inferred = nullptr) {
  const Result<Schema> want = LegacyInferSchema(content);
  if (inferred != nullptr) *inferred = want.ok();
  std::istringstream in(content);
  const Result<Schema> got =
      csv_scan::InferSchemaFromStream(in, CsvOptions(), window);
  std::string diff = CompareInference(want, got);
  if (!diff.empty() || !want.ok()) return diff;

  const Result<DataFrame> legacy = ParseCsv(content, *want);
  IngestOptions options;
  options.chunk_bytes = chunk;
  const Result<DataFrame> streamed =
      StreamCsvFromString(content, *want, options);
  if (legacy.ok() != streamed.ok() ||
      (!legacy.ok() && legacy.status().code() != streamed.status().code())) {
    return "parse: legacy " + Describe(legacy.status()) + ", stream " +
           Describe(streamed.status());
  }
  if (!legacy.ok()) return "";
  diff = CompareFrames(*legacy, *streamed);
  return diff.empty() ? "" : "parse: " + diff;
}

TEST(CsvFuzzTest, MutantsAgreeWithLegacyReaders) {
  Rng rng(20250611);
  size_t failures = 0;
  size_t inferred = 0;
  for (size_t it = 0; it < kIterations; ++it) {
    const std::string seed = kSeeds[rng.NextBounded(std::size(kSeeds))];
    const std::string input = Mutate(seed, &rng);
    const size_t window = rng.NextBernoulli(0.5)
                              ? 1 + rng.NextBounded(16)
                              : csv_scan::kDefaultWindowBytes;
    bool ok = false;
    const std::string diff =
        CheckInput(input, window, 1 + rng.NextBounded(32), &ok);
    inferred += ok ? 1 : 0;
    if (diff.empty()) continue;
    ADD_FAILURE() << "iteration " << it << ": " << diff << "\n  input: \""
                  << Escape(input) << "\"";
    if (++failures >= kMaxReportedFailures) break;
  }
  // The mutation mix must reach the parse comparison, not only errors.
  EXPECT_GT(inferred, kIterations / 4);
}

TEST(CsvFuzzTest, SeedsAndFoundInputsAgreeAtEveryChunkSize) {
  std::vector<std::string> inputs(std::begin(kSeeds), std::end(kSeeds));
  // An extra cell before a quote that never closes: an unterminated
  // quote (IOError) for every reader, not a ragged row.
  inputs.push_back("a,b\n1,2\n3,4,5\"\n6,7\n");
  // A quoted field whose newline falls past the chunk edge: the cells
  // before it must be rolled back before the record is re-read.
  inputs.push_back("k,v\n\"1\",\"\n2\"\n\" 3 \",4\n");
  for (const std::string& input : inputs) {
    for (size_t size = 1; size <= 24; ++size) {
      EXPECT_EQ(CheckInput(input, size, size), "")
          << "size " << size << ", input \"" << Escape(input) << "\"";
    }
  }
}

}  // namespace
}  // namespace faircap
