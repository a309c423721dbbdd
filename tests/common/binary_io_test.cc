#include "common/binary_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "workload/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

std::string TempPath(const std::string& name) {
  return testing_util::TestTempDir() + "/" + name;
}

TEST(BinaryIoTest, RoundTripIsExact) {
  auto ds = GenerateUniform({.n = 1234, .dims = 7, .seed = 1});
  ASSERT_TRUE(ds.ok());
  const std::string path = TempPath("roundtrip.sjdb");
  ASSERT_TRUE(WriteBinaryDataset(*ds, path).ok());
  auto loaded = ReadBinaryDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), ds->size());
  EXPECT_EQ(loaded->dims(), ds->dims());
  EXPECT_EQ(loaded->flat(), ds->flat());  // bit-exact, unlike CSV
  std::remove(path.c_str());
}

TEST(BinaryIoTest, WriteRejectsDimensionlessDataset) {
  Dataset empty;
  EXPECT_FALSE(WriteBinaryDataset(empty, TempPath("x.sjdb")).ok());
}

TEST(BinaryIoTest, ReadRejectsMissingAndCorruptFiles) {
  EXPECT_EQ(ReadBinaryDataset(TempPath("missing.sjdb")).status().code(),
            StatusCode::kIoError);
  const std::string path = TempPath("corrupt.sjdb");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a dataset";
  }
  EXPECT_EQ(ReadBinaryDataset(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReaderStreamsInBatches) {
  auto ds = GenerateUniform({.n = 1000, .dims = 3, .seed = 2});
  const std::string path = TempPath("batched.sjdb");
  ASSERT_TRUE(WriteBinaryDataset(*ds, path).ok());

  BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.total_points(), 1000u);
  EXPECT_EQ(reader.dims(), 3u);

  Dataset batch;
  PointId first_id = 0;
  size_t total = 0;
  size_t batches = 0;
  while (!reader.AtEnd()) {
    ASSERT_TRUE(reader.ReadBatch(64, &batch, &first_id).ok());
    EXPECT_EQ(first_id, total);
    // Batch contents match the original rows.
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(batch.Row(static_cast<PointId>(i)),
                               ds->Row(static_cast<PointId>(total + i)),
                               3 * sizeof(float)));
    }
    total += batch.size();
    ++batches;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(batches, (1000u + 63) / 64);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReaderRejectsBadBatchArgs) {
  auto ds = GenerateUniform({.n = 10, .dims = 2, .seed = 3});
  const std::string path = TempPath("args.sjdb");
  ASSERT_TRUE(WriteBinaryDataset(*ds, path).ok());
  BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Dataset batch;
  PointId first_id;
  EXPECT_FALSE(reader.ReadBatch(0, &batch, &first_id).ok());
  EXPECT_FALSE(reader.ReadBatch(5, nullptr, &first_id).ok());
  EXPECT_FALSE(reader.ReadBatch(5, &batch, nullptr).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, TruncatedPayloadIsIoError) {
  auto ds = GenerateUniform({.n = 100, .dims = 4, .seed = 4});
  const std::string path = TempPath("truncated.sjdb");
  ASSERT_TRUE(WriteBinaryDataset(*ds, path).ok());
  // Chop the file in half (keeping the header).
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = ReadBinaryDataset(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// Builds a file with an arbitrary header and payload size, bypassing the
// writer's invariants, to probe the reader's validation.
void WriteRawFile(const std::string& path, uint64_t num_points, uint64_t dims,
                  size_t payload_bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const uint32_t magic = 0x534a4442;
  const uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&num_points), sizeof(num_points));
  out.write(reinterpret_cast<const char*>(&dims), sizeof(dims));
  const std::vector<char> payload(payload_bytes, 0);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

TEST(BinaryIoTest, ShortPayloadRejectedAtOpen) {
  // The size check must fire at Open, before anything allocates
  // num_points * dims floats from the (lying) header.
  const std::string path = TempPath("short.sjdb");
  WriteRawFile(path, /*num_points=*/100, /*dims=*/4, /*payload_bytes=*/64);
  BinaryDatasetReader reader;
  EXPECT_EQ(reader.Open(path).code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, TrailingBytesRejectedAtOpen) {
  const std::string path = TempPath("long.sjdb");
  WriteRawFile(path, /*num_points=*/2, /*dims=*/2, /*payload_bytes=*/17);
  BinaryDatasetReader reader;
  EXPECT_EQ(reader.Open(path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, HostileHeaderSizesRejected) {
  const std::string path = TempPath("hostile.sjdb");
  // num_points * dims * 4 wraps around u64; must not turn into a small
  // (seemingly satisfiable) expectation.
  WriteRawFile(path, ~uint64_t{0} / 4, 8, 32);
  {
    BinaryDatasetReader reader;
    EXPECT_EQ(reader.Open(path).code(), StatusCode::kInvalidArgument);
  }

  // Absurd dimensionality is rejected outright.
  WriteRawFile(path, 1, uint64_t{1} << 40, 32);
  {
    BinaryDatasetReader reader;
    EXPECT_EQ(reader.Open(path).code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, EmptyDatasetWithDimsRoundTrips) {
  Dataset empty(0, 5);
  const std::string path = TempPath("empty.sjdb");
  ASSERT_TRUE(WriteBinaryDataset(empty, path).ok());
  auto loaded = ReadBinaryDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->dims(), 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simjoin
