// Streaming ingest tests: the chunked columnar reader must produce a
// DataFrame bit-for-bit identical to the row-by-row test oracle
// (LegacyParseCsv in tests/reference) — schema, cell values, dictionary
// code assignment order, and predicate evaluation — across
// quoting/CRLF/null edge cases and arbitrary chunk boundaries; the
// parallel reader must match the sequential one, errors included; the
// warm-started PredicateIndex must serve masks identical to cold columnar
// scans; and the DatasetRepository front door must load built-ins,
// parameterized synthetics, and file-backed datasets.

#include "ingest/chunked_csv_reader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "causal/dag_io.h"
#include "csv_corpus.h"
#include "dataframe/predicate_index.h"
#include "ingest/repository.h"
#include "ingest/synthetic.h"
#include "mining/pattern.h"
#include "reference/legacy_csv.h"
#include "util/task_scheduler.h"

namespace faircap {
namespace {

// Bit-for-bit table equality: schema, nulls, dictionary codes (not just
// string values — code order is what the index and Apriori key off), and
// numeric payloads.
void ExpectFramesIdentical(const DataFrame& a, const DataFrame& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.schema().attribute(c).name, b.schema().attribute(c).name);
    ASSERT_EQ(a.schema().attribute(c).type, b.schema().attribute(c).type);
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    if (ca.type() == AttrType::kCategorical) {
      ASSERT_EQ(ca.num_categories(), cb.num_categories()) << "column " << c;
      for (size_t code = 0; code < ca.num_categories(); ++code) {
        EXPECT_EQ(ca.CategoryName(static_cast<int32_t>(code)),
                  cb.CategoryName(static_cast<int32_t>(code)));
      }
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (ca.type() == AttrType::kCategorical) {
        ASSERT_EQ(ca.code(r), cb.code(r)) << "col " << c << " row " << r;
      } else {
        const bool null_a = ca.IsNull(r);
        ASSERT_EQ(null_a, cb.IsNull(r)) << "col " << c << " row " << r;
        if (!null_a) {
          ASSERT_EQ(ca.numeric(r), cb.numeric(r))
              << "col " << c << " row " << r;
        }
      }
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

Schema TestSchema() {
  return Schema::Create({
                            {"name", AttrType::kCategorical,
                             AttrRole::kImmutable},
                            {"city", AttrType::kCategorical,
                             AttrRole::kImmutable},
                            {"score", AttrType::kNumeric, AttrRole::kOutcome},
                        })
      .ValueOrDie();
}

TEST(IngestTest, StreamingMatchesLegacyOnEdgeCases) {
  const auto legacy = LegacyParseCsv(kEdgeCaseCsv, TestSchema());
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  const auto streamed = StreamCsvFromString(kEdgeCaseCsv, TestSchema());
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->num_rows(), 6u);
  ExpectFramesIdentical(*legacy, *streamed);
  // Spot-check the tricky cells directly.
  EXPECT_EQ(streamed->GetValue(1, 0), Value("smith, john"));
  EXPECT_EQ(streamed->GetValue(1, 1), Value("a\nb"));
  EXPECT_EQ(streamed->GetValue(2, 0), Value("say \"hi\""));
  EXPECT_TRUE(streamed->GetValue(2, 2).is_null());
  EXPECT_TRUE(streamed->GetValue(3, 0).is_null());
  EXPECT_TRUE(streamed->GetValue(3, 1).is_null());
  EXPECT_EQ(streamed->GetValue(4, 2), Value(-300.0));
  EXPECT_TRUE(streamed->GetValue(5, 2).is_null());  // trailing empty column
}

TEST(IngestTest, ChunkBoundariesNeverSplitSemantics) {
  // Force chunk boundaries at every offset: 1-byte chunks make each
  // record (and each quoted field) straddle many reads.
  for (const size_t chunk_bytes : {1u, 3u, 7u, 64u}) {
    IngestOptions options;
    options.chunk_bytes = chunk_bytes;
    const auto streamed =
        StreamCsvFromString(kEdgeCaseCsv, TestSchema(), options);
    ASSERT_TRUE(streamed.ok())
        << "chunk " << chunk_bytes << ": " << streamed.status().ToString();
    const auto legacy = LegacyParseCsv(kEdgeCaseCsv, TestSchema());
    ASSERT_TRUE(legacy.ok());
    ExpectFramesIdentical(*legacy, *streamed);
  }
}

TEST(IngestTest, ErrorsMatchLegacySemantics) {
  // Dangling quote.
  EXPECT_EQ(StreamCsvFromString("name,city,score\n\"alice,b,1\n",
                                TestSchema())
                .status()
                .code(),
            StatusCode::kIOError);
  // Ragged row.
  EXPECT_EQ(StreamCsvFromString("name,city,score\nalice,b\n", TestSchema())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Non-numeric cell.
  EXPECT_EQ(StreamCsvFromString("name,city,score\nalice,b,abc\n",
                                TestSchema())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Header mismatch.
  EXPECT_EQ(StreamCsvFromString("wrong,city,score\nalice,b,1\n", TestSchema())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Empty input.
  EXPECT_EQ(StreamCsvFromString("", TestSchema()).status().code(),
            StatusCode::kIOError);
  // Missing file.
  EXPECT_EQ(StreamCsv("/nonexistent/path.csv", TestSchema()).status().code(),
            StatusCode::kIOError);
}

TEST(IngestTest, StreamingMatchesLegacyOnGeneratedWorkload) {
  SyntheticConfig config;
  config.num_rows = 800;
  config.seed = 21;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  const std::string path = testing::TempDir() + "/faircap_ingest_test.csv";
  ASSERT_TRUE(WriteCsv(data->df, path).ok());

  const auto legacy = LegacyParseCsv(ReadFile(path), data->df.schema());
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  IngestOptions options;
  options.chunk_bytes = 512;  // force many chunks
  IngestStats stats;
  const auto streamed = StreamCsv(path, data->df.schema(), options, &stats);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  std::remove(path.c_str());

  // (The generated frame itself differs from both: WriteCsv's %.6g
  // formatting rounds the numeric outcome. Streaming vs legacy — the
  // two readers of the same bytes — must agree exactly.)
  ExpectFramesIdentical(*legacy, *streamed);
  EXPECT_EQ(stats.rows, config.num_rows);
  EXPECT_GT(stats.chunks, 1u);
  EXPECT_GT(stats.bytes, 0u);

  // Predicate evaluation over the streamed (warm) table must equal both
  // the naive scan and the legacy (cold) table's evaluation.
  for (size_t attr = 0; attr < streamed->num_columns(); ++attr) {
    if (streamed->column(attr).type() != AttrType::kCategorical) continue;
    for (size_t code = 0; code < streamed->column(attr).num_categories();
         ++code) {
      const Predicate p(
          attr, CompareOp::kEq,
          Value(streamed->column(attr).CategoryName(
              static_cast<int32_t>(code))));
      const Bitmap streamed_mask = p.Evaluate(*streamed);
      EXPECT_TRUE(streamed_mask == p.EvaluateNaive(*streamed));
      EXPECT_TRUE(streamed_mask == p.Evaluate(*legacy));
    }
  }
  const Bitmap streamed_protected =
      data->protected_pattern.Evaluate(*streamed);
  EXPECT_TRUE(streamed_protected ==
              data->protected_pattern.Evaluate(legacy.ValueOrDie()));
}

TEST(IngestTest, WarmStartPopulatesIndexWithoutScans) {
  const auto streamed = StreamCsvFromString(kEdgeCaseCsv, TestSchema());
  ASSERT_TRUE(streamed.ok());
  const auto stats = streamed->predicate_index().GetStats();
  // Both categorical columns' categories got masks at ingest time.
  EXPECT_GT(stats.warm_atom_masks, 0u);
  EXPECT_EQ(stats.atom_masks, stats.warm_atom_masks);
  EXPECT_EQ(stats.misses, 0u);

  // A warm atom request is a pure cache hit and matches a cold scan.
  const Predicate p(0, CompareOp::kEq, Value("alice"));
  const Bitmap mask = p.Evaluate(*streamed);
  EXPECT_TRUE(mask ==
              PredicateIndex::Scan(*streamed, 0, CompareOp::kEq,
                                   Value("alice")));
  const auto after = streamed->predicate_index().GetStats();
  EXPECT_GT(after.hits, 0u);
  EXPECT_EQ(after.misses, 0u);
}

TEST(IngestTest, WarmStartCanBeDisabled) {
  IngestOptions options;
  options.warm_start_index = false;
  const auto streamed =
      StreamCsvFromString(kEdgeCaseCsv, TestSchema(), options);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->predicate_index().GetStats().atom_masks, 0u);
}

// Chunk-parallel ingest must be bit-for-bit the sequential result —
// dictionary code order included — for every segment-boundary placement
// the record-aligned splitter can produce, on the nastiest input we have
// (quoted newlines, CRLF, nulls, trailing empty columns, no trailing
// newline).
TEST(IngestTest, ParallelMatchesSequentialOnEdgeCases) {
  const auto sequential = StreamCsvFromString(kEdgeCaseCsv, TestSchema());
  ASSERT_TRUE(sequential.ok());
  for (const size_t chunk_bytes : {1u, 3u, 16u, 64u, 4096u}) {
    IngestOptions options;
    options.chunk_bytes = chunk_bytes;  // target segment size
    options.num_threads = 3;
    IngestStats stats;
    const auto parallel =
        StreamCsvFromString(kEdgeCaseCsv, TestSchema(), options, &stats);
    ASSERT_TRUE(parallel.ok())
        << "chunk " << chunk_bytes << ": " << parallel.status().ToString();
    ExpectFramesIdentical(*sequential, *parallel);
  }
}

TEST(IngestTest, ParallelMatchesSequentialOnGeneratedWorkload) {
  SyntheticConfig config;
  config.num_rows = 2000;
  config.seed = 57;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/faircap_par_ingest.csv";
  ASSERT_TRUE(WriteCsv(data->df, path).ok());

  const auto sequential = StreamCsv(path, data->df.schema());
  ASSERT_TRUE(sequential.ok());
  IngestOptions options;
  options.chunk_bytes = 2048;  // force many segments
  options.num_threads = 4;
  IngestStats stats;
  const auto parallel = StreamCsv(path, data->df.schema(), options, &stats);
  std::remove(path.c_str());
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectFramesIdentical(*sequential, *parallel);
  EXPECT_EQ(stats.rows, config.num_rows);
  EXPECT_GT(stats.chunks, 1u);       // actually segmented
  EXPECT_EQ(stats.parse_threads, 4u);

  // The warm-started index built off the merged columns must serve masks
  // identical to cold scans.
  for (size_t attr = 0; attr < parallel->num_columns(); ++attr) {
    if (parallel->column(attr).type() != AttrType::kCategorical) continue;
    for (size_t code = 0; code < parallel->column(attr).num_categories();
         ++code) {
      const Predicate p(attr, CompareOp::kEq,
                        Value(parallel->column(attr).CategoryName(
                            static_cast<int32_t>(code))));
      EXPECT_TRUE(p.Evaluate(*parallel) == p.EvaluateNaive(*parallel));
    }
  }
}

TEST(IngestTest, ParallelErrorsMatchSequentialSemantics) {
  IngestOptions options;
  options.num_threads = 3;
  options.chunk_bytes = 4;
  // Dangling quote / ragged row / bad numeric / empty input.
  for (const char* content :
       {"name,city,score\n\"alice,b,1\n", "name,city,score\nalice,b\n",
        "name,city,score\nalice,b,abc\nx,y,1\n", ""}) {
    SCOPED_TRACE(content);
    const Status sequential =
        StreamCsvFromString(content, TestSchema()).status();
    const Status parallel =
        StreamCsvFromString(content, TestSchema(), options).status();
    ASSERT_FALSE(sequential.ok());
    EXPECT_EQ(parallel.code(), sequential.code());
    EXPECT_EQ(parallel.message(), sequential.message());
  }

  // Errors in the first, a middle and the last of ~12 segments: only the
  // failing segment is parsed again, and its record numbers must count
  // from the start of the file exactly as the sequential reader does.
  // Data rows are "n<r>,c<r % 3>,<r>", except row `at`, which is `fault`.
  constexpr size_t kRows = 40;
  const auto table = [](size_t at, const std::string& fault) {
    std::string content = "name,city,score\n";
    for (size_t r = 0; r < kRows; ++r) {
      content += r == at ? fault
                         : "n" + std::to_string(r) + ",c" +
                               std::to_string(r % 3) + "," +
                               std::to_string(r);
      content += "\n";
    }
    return content;
  };
  options.chunk_bytes = 32;
  IngestStats stats;
  ASSERT_TRUE(
      StreamCsvFromString(table(kRows, ""), TestSchema(), options, &stats)
          .ok());
  EXPECT_GE(stats.chunks, 10u);  // the clean table splits that far
  struct Fault {
    const char* what;
    std::string row;
  };
  const Fault faults[] = {{"ragged", "bad,row"},
                          {"non-numeric", "bad,row,abc"},
                          {"unterminated quote", "bad,\"row,1"}};
  for (const Fault& fault : faults) {
    for (const size_t at : {size_t{1}, kRows / 2, kRows - 1}) {
      const std::string content = table(at, fault.row);
      SCOPED_TRACE(std::string(fault.what) + " at row " +
                   std::to_string(at));
      const Status sequential =
          StreamCsvFromString(content, TestSchema()).status();
      const Status parallel =
          StreamCsvFromString(content, TestSchema(), options).status();
      ASSERT_FALSE(sequential.ok());
      EXPECT_EQ(parallel.code(), sequential.code());
      EXPECT_EQ(parallel.message(), sequential.message());
      // The header is record 1, so data row `at` is record at + 2.
      EXPECT_NE(sequential.message().find("record " + std::to_string(at + 2)),
                std::string::npos)
          << sequential.message();
    }
  }
}

TEST(IngestTest, ParallelRunsOnBorrowedScheduler) {
  TaskScheduler scheduler(3);
  IngestOptions options;
  options.scheduler = &scheduler;
  options.chunk_bytes = 16;
  IngestStats stats;
  const auto parallel =
      StreamCsvFromString(kEdgeCaseCsv, TestSchema(), options, &stats);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  const auto sequential = StreamCsvFromString(kEdgeCaseCsv, TestSchema());
  ASSERT_TRUE(sequential.ok());
  ExpectFramesIdentical(*sequential, *parallel);
  EXPECT_EQ(stats.parse_threads, 3u);
  EXPECT_GT(scheduler.GetStats().executed, 0u);
}

TEST(IngestTest, InferSchemaMatchesLegacyInference) {
  const std::string path = testing::TempDir() + "/faircap_ingest_infer.csv";
  {
    std::ofstream out(path);
    out << "a,b,c\nx,1,2.5\ny,2,NA\nz,3,7\n";
  }
  const std::string content = ReadFile(path);
  const auto legacy_schema = LegacyInferSchema(content);
  ASSERT_TRUE(legacy_schema.ok());
  const auto legacy = LegacyParseCsv(content, *legacy_schema);
  ASSERT_TRUE(legacy.ok());
  const auto streamed = StreamCsvInferSchema(path);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  std::remove(path.c_str());
  ExpectFramesIdentical(*legacy, *streamed);
  EXPECT_EQ(streamed->schema().attribute(0).type, AttrType::kCategorical);
  EXPECT_EQ(streamed->schema().attribute(1).type, AttrType::kNumeric);
}

TEST(RepositoryTest, BuiltinsAreRegistered) {
  DatasetRepository repo;
  EXPECT_TRUE(repo.Contains("german"));
  EXPECT_TRUE(repo.Contains("stackoverflow"));
  EXPECT_TRUE(repo.Contains("synthetic"));
  EXPECT_TRUE(repo.Contains("file"));
  EXPECT_FALSE(repo.Contains("nope"));
  EXPECT_GE(repo.List().size(), 4u);
}

TEST(RepositoryTest, LoadsGermanWithRowOverride) {
  DatasetRequest request;
  request.name = "german";
  request.rows = 200;
  const auto dataset = DatasetRepository::Global().Load(request);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->name, "german");
  EXPECT_EQ(dataset->df.num_rows(), 200u);
  EXPECT_FALSE(dataset->protected_pattern.empty());
  EXPECT_GT(dataset->dag.num_nodes(), 0u);
}

TEST(RepositoryTest, LoadsParameterizedSynthetic) {
  DatasetRequest request;
  request.name = "synthetic";
  request.rows = 300;
  request.seed = 5;
  request.params["protected-fraction"] = "0.4";
  request.params["mutable"] = "2";
  const auto dataset = DatasetRepository::Global().Load(request);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->df.num_rows(), 300u);
  const size_t protected_rows =
      dataset->protected_pattern.Evaluate(dataset->df).Count();
  EXPECT_GT(protected_rows, 60u);   // ~120 expected
  EXPECT_LT(protected_rows, 180u);
}

TEST(RepositoryTest, UnknownNameAndBadParamsFail) {
  EXPECT_EQ(DatasetRepository::Global().Load("nope").status().code(),
            StatusCode::kNotFound);
  DatasetRequest request;
  request.name = "synthetic";
  request.params["protected-fraction"] = "banana";
  EXPECT_EQ(DatasetRepository::Global().Load(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RepositoryTest, AppendFromStringExtendsResidentTable) {
  auto schema = Schema::Create({
      {"city", AttrType::kCategorical, AttrRole::kImmutable},
      {"job", AttrType::kCategorical, AttrRole::kMutable},
      {"income", AttrType::kNumeric, AttrRole::kOutcome},
  });
  Dataset dataset;
  dataset.name = "inline";
  dataset.df = DataFrame::Create(std::move(schema).ValueOrDie());
  ASSERT_TRUE(
      dataset.df.AppendRow({Value("nyc"), Value("dev"), Value(100.0)}).ok());
  ASSERT_TRUE(
      dataset.df.AppendRow({Value("sf"), Value("qa"), Value(80.0)}).ok());
  const uint64_t gen_before = dataset.df.generation();

  // Delta parsed against the RESIDENT schema: the new city interns after
  // the resident categories, empty fields come in as nulls.
  DatasetRepository::AppendStats stats;
  const Status st = DatasetRepository::AppendFromString(
      &dataset, "city,job,income\nberlin,dev,120\nnyc,,\n", {}, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.df.num_rows(), 4u);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(dataset.df.generation(), gen_before);
  EXPECT_EQ(dataset.df.GetValue(2, 0), Value("berlin"));
  EXPECT_EQ(dataset.df.GetValue(2, 2), Value(120.0));
  EXPECT_TRUE(dataset.df.GetValue(3, 1).is_null());
  EXPECT_EQ(dataset.df.column(0).CategoryName(2), "berlin");

  // A delta whose header does not match the resident schema fails
  // loudly and leaves the table untouched.
  EXPECT_FALSE(
      DatasetRepository::AppendFromString(&dataset, "city,job\nx,y\n").ok());
  EXPECT_EQ(dataset.df.num_rows(), 4u);
}

TEST(RepositoryTest, RegisterRejectsDuplicates) {
  DatasetRepository repo;
  const auto factory = [](const DatasetRequest&) -> Result<Dataset> {
    return Status::Internal("unused");
  };
  EXPECT_TRUE(repo.Register("custom", "a custom dataset", factory).ok());
  EXPECT_TRUE(repo.Contains("custom"));
  EXPECT_EQ(repo.Register("custom", "again", factory).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(repo.Register("german", "clash", factory).code(),
            StatusCode::kAlreadyExists);
}

TEST(RepositoryTest, FileDatasetLoadsThroughStreamingIngest) {
  // Generate a small dataset, persist CSV + DAG, reload via the "file"
  // factory, and check the round trip preserves rows and ground truth.
  SyntheticConfig config;
  config.num_rows = 250;
  config.seed = 3;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok());

  const std::string csv_path = testing::TempDir() + "/faircap_repo_test.csv";
  const std::string dag_path = testing::TempDir() + "/faircap_repo_test.dag";
  ASSERT_TRUE(WriteCsv(data->df, csv_path).ok());
  {
    std::ofstream out(dag_path);
    out << DagToText(data->dag);
  }

  DatasetRequest request;
  request.name = "file";
  request.params["path"] = csv_path;
  request.params["dag"] = dag_path;
  request.params["outcome"] = "Outcome";
  request.params["mutable"] = "M1,M2,M3";
  request.params["protected"] = "Group=protected";
  const auto dataset = DatasetRepository::Global().Load(request);
  std::remove(csv_path.c_str());
  std::remove(dag_path.c_str());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  EXPECT_EQ(dataset->df.num_rows(), 250u);
  EXPECT_EQ(dataset->df.schema()
                .attribute(dataset->df.schema().OutcomeIndex().ValueOrDie())
                .name,
            "Outcome");
  EXPECT_EQ(dataset->df.schema().IndicesWithRole(AttrRole::kMutable).size(),
            3u);
  EXPECT_TRUE(dataset->protected_pattern.Evaluate(dataset->df) ==
              data->protected_pattern.Evaluate(data->df));
  // The file path came in through streaming ingest: index starts warm.
  EXPECT_GT(dataset->df.predicate_index().GetStats().warm_atom_masks, 0u);

  // Missing params fail loudly.
  DatasetRequest incomplete;
  incomplete.name = "file";
  EXPECT_EQ(DatasetRepository::Global().Load(incomplete).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace faircap
