#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ts/io.h"

namespace smiler {
namespace ts {
namespace {

TEST(CsvTest, ParsesColumnLayoutWithHeader) {
  const std::string text =
      "road-a,road-b\n"
      "1.0,4.0\n"
      "2.0,5.0\n"
      "3.0,6.0\n";
  auto result = ParseCsv(text);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].sensor_id(), "road-a");
  EXPECT_EQ((*result)[1].sensor_id(), "road-b");
  EXPECT_EQ((*result)[0].values(), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ((*result)[1].values(), (std::vector<double>{4, 5, 6}));
}

TEST(CsvTest, ParsesRowLayoutWithoutHeader) {
  CsvOptions options;
  options.has_header = false;
  options.sensors_in_columns = false;
  auto result = ParseCsv("1,2,3\n4,5,6\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].sensor_id(), "sensor-0");
  EXPECT_EQ((*result)[0].values(), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ((*result)[1].values(), (std::vector<double>{4, 5, 6}));
}

TEST(CsvTest, CustomDelimiterAndCrlf) {
  CsvOptions options;
  options.delimiter = ';';
  auto result = ParseCsv("a;b\r\n1;2\r\n3;4\r\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[1].values(), (std::vector<double>{2, 4}));
}

TEST(CsvTest, ScientificNotationAndNegatives) {
  auto result = ParseCsv("s\n-1.5e-3\n2E2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((*result)[0][0], -0.0015);
  EXPECT_DOUBLE_EQ((*result)[0][1], 200.0);
}

TEST(CsvTest, RejectsNonNumeric) {
  auto result = ParseCsv("s\n1.0\nNA\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsRaggedRows) {
  auto result = ParseCsv("a,b\n1,2\n3\n");
  ASSERT_FALSE(result.ok());
}

TEST(CsvTest, RejectsEmpty) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("header-only\n").ok());
}

TEST(CsvTest, MissingValueIsRejectedNotSilentlyZero) {
  auto result = ParseCsv("a,b\n1,\n2,3\n");
  ASSERT_FALSE(result.ok());
}

TEST(CsvTest, ReadMissingFileIsNotFound) {
  auto result = ReadCsv("/no/such/file.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, WriteReadRoundTrip) {
  std::vector<TimeSeries> series;
  series.emplace_back("alpha", std::vector<double>{1.25, -2.5, 3.75});
  series.emplace_back("beta", std::vector<double>{0.1, 0.2, 0.3});
  const std::string path = ::testing::TempDir() + "/smiler_io_test_" +
                           std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(WriteCsv(path, series).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].sensor_id(), "alpha");
  EXPECT_EQ((*back)[0].values(), series[0].values());
  EXPECT_EQ((*back)[1].values(), series[1].values());
  std::remove(path.c_str());
}

TEST(CsvTest, WriteRejectsRaggedOrEmpty) {
  EXPECT_FALSE(WriteCsv("/tmp/x.csv", {}).ok());
  std::vector<TimeSeries> ragged;
  ragged.emplace_back("a", std::vector<double>{1, 2});
  ragged.emplace_back("b", std::vector<double>{1});
  EXPECT_FALSE(WriteCsv("/tmp/x.csv", ragged).ok());
}

TEST(CsvTest, ToleratesBomPaddingAndBlankLines) {
  // Formatting noise real feeds carry: a UTF-8 BOM, whitespace-padded
  // cells, blank / whitespace-only separator lines, and a CRLF mix.
  const std::string text =
      "\xEF\xBB\xBF"
      "a, b\r\n"
      "\r\n"
      " 1.0 ,\t2.0\n"
      "   \t  \n"
      "3.0, 4.0 \r\n"
      "\n";
  auto result = ParseCsv(text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].sensor_id(), "a");
  EXPECT_EQ((*result)[0].values(), (std::vector<double>{1, 3}));
  EXPECT_EQ((*result)[1].values(), (std::vector<double>{2, 4}));
}

TEST(CsvTest, ErrorsNameLineAndColumn) {
  auto bad_cell = ParseCsv("a,b\n1.0,2.0\n3.0,oops\n");
  ASSERT_FALSE(bad_cell.ok());
  EXPECT_EQ(bad_cell.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_cell.status().message().find("line 3"), std::string::npos)
      << bad_cell.status().ToString();
  EXPECT_NE(bad_cell.status().message().find("column 2"), std::string::npos)
      << bad_cell.status().ToString();

  auto empty_cell = ParseCsv("a,b\n,2.0\n");
  ASSERT_FALSE(empty_cell.ok());
  EXPECT_NE(empty_cell.status().message().find("empty cell"),
            std::string::npos)
      << empty_cell.status().ToString();
}

TEST(CsvTest, WhitespaceOnlyCellIsStillEmpty) {
  // Padding tolerance must not soften the content checks: a cell of pure
  // whitespace is an empty cell, not a zero.
  EXPECT_FALSE(ParseCsv("a,b\n1.0,   \n").ok());
}

// Property: write -> read is the identity on awkward but valid doubles
// (denormals, huge magnitudes, many digits), across both layouts and a
// deterministic LCG-driven grid of shapes.
TEST(CsvTest, RoundTripPropertyOverAwkwardValues) {
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 11;
  };
  const double specials[] = {0.0,     -0.0,   1e-308,       -1e-308, 1e308,
                             -1e308,  0.1,    1.0 / 3.0,    -2.5e-7, 12345.678901234567,
                             -1e-15,  42.0};
  for (int sensors = 1; sensors <= 3; ++sensors) {
    for (int points : {1, 7, 33}) {
      std::vector<TimeSeries> series;
      for (int s = 0; s < sensors; ++s) {
        std::vector<double> values(points);
        for (int t = 0; t < points; ++t) {
          values[t] = specials[next() % (sizeof(specials) / sizeof(double))];
        }
        series.emplace_back("sensor-" + std::to_string(s), std::move(values));
      }
      const std::string path =
          ::testing::TempDir() + "/smiler_io_prop_" +
          std::to_string(::getpid()) + "_" +
          std::to_string(sensors) + "_" + std::to_string(points) + ".csv";
      ASSERT_TRUE(WriteCsv(path, series).ok());
      auto back = ReadCsv(path);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_EQ(back->size(), series.size());
      for (int s = 0; s < sensors; ++s) {
        // Bitwise round-trip: WriteCsv emits 17 significant digits, which
        // is lossless for IEEE-754 doubles.
        EXPECT_EQ((*back)[s].values(), series[s].values())
            << "sensors=" << sensors << " points=" << points << " s=" << s;
      }
      std::remove(path.c_str());
    }
  }
}

}  // namespace
}  // namespace ts
}  // namespace smiler
