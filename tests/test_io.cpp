#include "data/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "data/generator.hpp"

namespace multihit {
namespace {

Dataset sample_dataset() {
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 20;
  spec.normal_samples = 15;
  spec.hits = 2;
  spec.num_combinations = 3;
  spec.seed = 77;
  Dataset data = generate_dataset(spec);
  data.name = "roundtrip";
  return data;
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  const Dataset original = sample_dataset();
  std::stringstream buffer;
  write_dataset(buffer, original);
  const Dataset loaded = read_dataset(buffer);
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.tumor, original.tumor);
  EXPECT_EQ(loaded.normal, original.normal);
  EXPECT_EQ(loaded.planted, original.planted);
}

TEST(DatasetIo, EmptyMatricesRoundTrip) {
  Dataset data;
  data.name = "empty";
  data.tumor = BitMatrix(5, 0);
  data.normal = BitMatrix(5, 0);
  std::stringstream buffer;
  write_dataset(buffer, data);
  const Dataset loaded = read_dataset(buffer);
  EXPECT_EQ(loaded.genes(), 5u);
  EXPECT_EQ(loaded.tumor_samples(), 0u);
}

TEST(DatasetIo, RejectsBadMagic) {
  std::stringstream buffer("not-a-dataset\n");
  EXPECT_THROW(read_dataset(buffer), std::runtime_error);
}

TEST(DatasetIo, RejectsTruncatedHeader) {
  std::stringstream buffer("multihit-dataset v1\nname x\ngenes 3\n");
  EXPECT_THROW(read_dataset(buffer), std::runtime_error);
}

TEST(DatasetIo, RejectsOutOfRangeEntries) {
  std::stringstream buffer(
      "multihit-dataset v1\nname x\ngenes 3\ntumor-samples 2\nnormal-samples 2\n"
      "planted 0\nt 5 0\nend\n");
  EXPECT_THROW(read_dataset(buffer), std::runtime_error);
}

TEST(DatasetIo, RejectsMissingEnd) {
  std::stringstream buffer(
      "multihit-dataset v1\nname x\ngenes 3\ntumor-samples 2\nnormal-samples 2\n"
      "planted 0\nt 1 0\n");
  EXPECT_THROW(read_dataset(buffer), std::runtime_error);
}

TEST(DatasetIo, RejectsMalformedHeaderNumbers) {
  // Each once escaped the documented std::runtime_error: "abc" threw
  // std::invalid_argument, 2^32 + 1 wrapped to a 1-gene dataset, "-1" tried
  // to allocate 2^32 - 1 rows, and the 102-byte input wrapped the per-row
  // word count to 0 and wrote past the matrix on its sparse line.
  const auto with_genes = [](const std::string& genes) {
    return "multihit-dataset v1\nname x\ngenes " + genes +
           "\ntumor-samples 2\nnormal-samples 2\nplanted 0\nend\n";
  };
  const std::string huge_samples =
      "multihit-dataset v1\nname x\ngenes 1\ntumor-samples 4294967290\n"
      "normal-samples 1\nplanted 0\nt 0 100000\nend\n";
  ASSERT_EQ(huge_samples.size(), 102u);
  for (const std::string& input :
       {with_genes("abc"), with_genes("4294967297"), with_genes("-1"), huge_samples}) {
    SCOPED_TRACE(input);
    std::stringstream buffer(input);
    EXPECT_THROW(read_dataset(buffer), std::runtime_error);
  }
}

TEST(DatasetIo, RejectsOversizedMatrixBeforeAllocating) {
  // Each dimension is under its own cap, but genes x words per row is not:
  // these once reached the BitMatrix constructor and threw std::bad_alloc
  // (the second under a 4 GB address-space limit) instead of the documented
  // error. The oversized matrix is the tumor one, then the normal one.
  const auto header = [](const std::string& genes, const std::string& tumor,
                         const std::string& normal) {
    return "multihit-dataset v1\nname x\ngenes " + genes + "\ntumor-samples " + tumor +
           "\nnormal-samples " + normal + "\nplanted 0\nend\n";
  };
  for (const std::string& input : {header("10000000", "100000000", "1"),
                                   header("100000", "3000000", "1"),
                                   header("100000", "1", "3000000")}) {
    SCOPED_TRACE(input);
    std::stringstream buffer(input);
    try {
      read_dataset(buffer);
      ADD_FAILURE() << "oversized matrix accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed dataset: matrix too large"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(DatasetIo, FileRoundTrip) {
  const Dataset original = sample_dataset();
  const std::string path = testing::TempDir() + "/multihit_io_test.txt";
  save_dataset(path, original);
  const Dataset loaded = load_dataset(path);
  EXPECT_EQ(loaded.tumor, original.tumor);
  EXPECT_EQ(loaded.normal, original.normal);
}

TEST(DatasetIo, MissingFileThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/path/file.txt"), std::ios_base::failure);
}

}  // namespace
}  // namespace multihit
