#include "common/csv.hh"

#include <charconv>
#include <fstream>

#include "common/logging.hh"
#include "common/strings.hh"

namespace charllm {

namespace {

template <typename Int>
void
appendInt(std::string& out, Int value)
{
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, end);
}

/** Append @p value, quoted only when it holds ',', '"' or a newline. */
void
appendEscaped(std::string& out, const std::string& value)
{
    if (value.find_first_of(",\"\n") == std::string::npos) {
        out += value;
        return;
    }
    out += '"';
    for (char c : value) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
}

} // namespace

void
CsvWriter::header(const std::vector<std::string>& cols)
{
    CHARLLM_ASSERT(!haveHeader, "CSV header already set");
    columns = cols.size();
    haveHeader = true;
    for (std::size_t i = 0; i < cols.size(); ++i) {
        if (i)
            body += ',';
        appendEscaped(body, cols[i]);
    }
    body += '\n';
}

void
CsvWriter::beginRow()
{
    CHARLLM_ASSERT(cells == 0, "previous CSV row not finished");
}

void
CsvWriter::nextCell()
{
    if (cells++ != 0)
        body += ',';
}

void
CsvWriter::cell(const std::string& value)
{
    nextCell();
    appendEscaped(body, value);
}

void
CsvWriter::cell(double value)
{
    nextCell();
    appendDouble(body, value, 6);
}

void
CsvWriter::cell(std::uint64_t value)
{
    nextCell();
    appendInt(body, value);
}

void
CsvWriter::cell(int value)
{
    nextCell();
    appendInt(body, value);
}

void
CsvWriter::endRow()
{
    CHARLLM_ASSERT(!haveHeader || cells == columns,
                   "CSV row has ", cells, " cells, expected ", columns);
    body += '\n';
    cells = 0;
    ++rows;
}

std::string
CsvWriter::str() const
{
    return body;
}

bool
CsvWriter::writeTo(const std::string& path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f.write(body.data(), static_cast<std::streamsize>(body.size()));
    return static_cast<bool>(f);
}

} // namespace charllm
