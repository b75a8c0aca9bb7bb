// Tests for the experiment harness table formatting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/harness/experiment.hpp"

namespace sdsm::harness {
namespace {

TEST(Harness, SpeedupGuardsZero) {
  EXPECT_EQ(speedup(10.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(speedup(10.0, 2.0), 5.0);
}

TEST(Harness, TablePrintsAllRowsAndGroupsOnce) {
  Table t("Moldyn - 8 processor results");
  t.add(Row{"Every 12 iterations", "CHAOS", 1.5, 6.0, 15704, 190.0, 4.6, ""});
  t.add(Row{"Every 12 iterations", "Tmk base", 1.4, 6.3, 62149, 160.0, 0, ""});
  t.add(Row{"Every 12 iterations", "Tmk optimized", 1.2, 7.1, 14528, 137.0,
            0.02, ""});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Moldyn - 8 processor results"), std::string::npos);
  EXPECT_NE(text.find("CHAOS"), std::string::npos);
  EXPECT_NE(text.find("Tmk optimized"), std::string::npos);
  EXPECT_NE(text.find("62149"), std::string::npos);
  // The group label appears exactly once.
  const auto first = text.find("Every 12 iterations");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("Every 12 iterations", first + 1), std::string::npos);
}

TEST(Harness, JsonEmitsTitleAndOneObjectPerRow) {
  Table t("api bench");
  t.add(Row{"g", "CHAOS", 1.5, 2.0, 10, 0.5, 0.1, "a \"quoted\" note", 0.0,
            123456, 777});
  t.add(Row{"g", "Tmk base", 2.5, 1.2, 99, 1.5, 0.0, ""});
  std::ostringstream os;
  t.print_json(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"title\": \"api bench\""), std::string::npos);
  EXPECT_NE(text.find("\"variant\": \"CHAOS\""), std::string::npos);
  EXPECT_NE(text.find("\"messages\": 99"), std::string::npos);
  EXPECT_NE(text.find("a \\\"quoted\\\" note"), std::string::npos);
  // The CSR shape audit columns ride along (default 0 when not set).
  EXPECT_NE(text.find("\"refs\": 123456"), std::string::npos);
  EXPECT_NE(text.find("\"max_row\": 777"), std::string::npos);
  EXPECT_NE(text.find("\"refs\": 0"), std::string::npos);
  int objects = 0;
  for (std::size_t i = 0; text.find("{\"group\"", i) != std::string::npos;
       i = text.find("{\"group\"", i) + 1) {
    ++objects;
  }
  EXPECT_EQ(objects, 2);
}

TEST(Harness, KernelRowsEmitEveryCounterAndTheSchemaDeclaresIt) {
  Row r{"g", "Tmk base", 1.0, 1.0, 10, 0.5, 0.0, ""};
  r.tmk.emplace();
  std::uint64_t v = 7;
  for (const DsmCounter& c : kDsmCounters) (*r.tmk).*c.value = v++;
  Table t("T");
  t.add(r);
  t.add(Row{"g", "serve", 1.0, 1.0, 10, 0.5, 0.0, ""});  // no counters
  std::ostringstream os;
  t.print_json(os);
  const std::string text = os.str();
  const std::size_t rows = text.find("\"rows\"");
  ASSERT_NE(rows, std::string::npos);
  const std::string schema = text.substr(0, rows);
  const std::size_t first_row = text.find("{\"group\"", rows);
  const std::size_t second_row = text.find("{\"group\"", first_row + 1);
  const std::string kernel_row = text.substr(first_row, second_row - first_row);
  const std::string plain_row = text.substr(second_row);
  v = 7;
  for (const DsmCounter& c : kDsmCounters) {
    const std::string key = "\"" + std::string(c.name) + "\"";
    SCOPED_TRACE(key);
    EXPECT_NE(schema.find("{\"name\": " + key + ", \"unit\": \"" +
                          std::string(c.unit) + "\", \"gate\": \"" +
                          std::string(c.gate) + "\"}"),
              std::string::npos);
    EXPECT_NE(kernel_row.find(key + ": " + std::to_string(v++) + ","),
              std::string::npos);
    // No counter shares a key with a row-level column (the key would be
    // written twice and the gate would read only one of them).
    EXPECT_EQ(plain_row.find(key), std::string::npos);
  }
  // The row-level gated columns head the schema.
  EXPECT_NE(schema.find("{\"name\": \"messages\", \"unit\": \"count\", "
                        "\"gate\": \"exact\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace sdsm::harness
