#include "common/csv.h"

#include <cstdio>
#include <fstream>
#include <string>

#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing_util::TestTempDir() + "/" + name;
  }
};

TEST_F(CsvTest, RoundTripPreservesValues) {
  Dataset ds;
  ds.Append(std::vector<float>{0.125f, -3.5f, 7.0f});
  ds.Append(std::vector<float>{1.0f, 2.0f, 3.0f});
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(ds, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  ASSERT_EQ(loaded->dims(), 3u);
  for (PointId i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(loaded->Row(i)[j], ds.Row(i)[j]);
    }
  }
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadSkipsBlankLines) {
  const std::string path = TempPath("blank.csv");
  {
    std::ofstream out(path);
    out << "1,2\n\n3,4\n";
  }
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadRejectsRaggedRows) {
  const std::string path = TempPath("ragged.csv");
  {
    std::ofstream out(path);
    out << "1,2\n3,4,5\n";
  }
  auto loaded = ReadCsv(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadRejectsNonNumericCells) {
  const std::string path = TempPath("alpha.csv");
  {
    std::ofstream out(path);
    out << "1,banana\n";
  }
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadRejectsEmptyFile) {
  const std::string path = TempPath("empty.csv");
  { std::ofstream out(path); }
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadMissingFileIsIoError) {
  auto loaded = ReadCsv(TempPath("does_not_exist.csv"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, WriteToUnwritablePathIsIoError) {
  Dataset ds(1, 1);
  EXPECT_EQ(WriteCsv(ds, "/nonexistent_dir_xyz/out.csv").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace simjoin
