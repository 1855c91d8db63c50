#include "io/matpower.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/status.h"

namespace phasorwatch::io {
namespace {

using grid::Branch;
using grid::Bus;
using grid::BusType;
using grid::Grid;

// One parsed matrix: rows of doubles.
using NumericMatrix = std::vector<std::vector<double>>;

// Strips %-comments and returns the content between "mpc.<name> = ["
// and the closing "];", or an empty string when absent.
Result<std::string> ExtractBlock(const std::string& contents,
                                 const std::string& name) {
  // Remove comments line by line first.
  std::string cleaned;
  cleaned.reserve(contents.size());
  std::istringstream lines(contents);
  std::string line;
  while (std::getline(lines, line)) {
    size_t comment = line.find('%');
    if (comment != std::string::npos) line.resize(comment);
    cleaned += line;
    cleaned += '\n';
  }

  std::string key = "mpc." + name;
  size_t at = cleaned.find(key);
  if (at == std::string::npos) {
    return Status::NotFound("matrix mpc." + name + " not present");
  }
  size_t open = cleaned.find('[', at);
  if (open == std::string::npos) {
    return Status::InvalidArgument("mpc." + name + " has no opening bracket");
  }
  size_t close = cleaned.find(']', open);
  if (close == std::string::npos) {
    return Status::InvalidArgument("mpc." + name + " has no closing bracket");
  }
  return cleaned.substr(open + 1, close - open - 1);
}

// Parses a matrix block: rows separated by ';' or newlines, entries by
// whitespace or commas.
Result<NumericMatrix> ParseMatrix(const std::string& block,
                                  const std::string& name) {
  NumericMatrix rows;
  std::string row_text;
  auto flush_row = [&]() -> Status {
    std::vector<double> row;
    std::istringstream entries(row_text);
    std::string token;
    while (entries >> token) {
      // Tolerate trailing commas inside rows.
      while (!token.empty() && token.back() == ',') token.pop_back();
      if (token.empty()) continue;
      char* end = nullptr;
      double value = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0') {
        return Status::InvalidArgument("mpc." + name +
                                       ": non-numeric token '" + token + "'");
      }
      row.push_back(value);
    }
    if (!row.empty()) rows.push_back(std::move(row));
    row_text.clear();
    return Status::OK();
  };

  for (char c : block) {
    if (c == ';' || c == '\n') {
      PW_RETURN_IF_ERROR(flush_row());
    } else if (c == ',') {
      row_text += ' ';
    } else {
      row_text += c;
    }
  }
  PW_RETURN_IF_ERROR(flush_row());
  if (rows.empty()) {
    return Status::InvalidArgument("mpc." + name + " is empty");
  }
  size_t cols = rows[0].size();
  for (const auto& row : rows) {
    if (row.size() != cols) {
      return Status::InvalidArgument("mpc." + name +
                                     " has ragged rows (expected " +
                                     std::to_string(cols) + " columns)");
    }
  }
  return rows;
}

double Col(const std::vector<double>& row, size_t idx, double fallback = 0.0) {
  return idx < row.size() ? row[idx] : fallback;
}

}  // namespace

Result<Grid> ParseMatpowerCase(const std::string& contents,
                               const std::string& case_name) {
  // baseMVA: "mpc.baseMVA = 100;"
  double base_mva = 100.0;
  {
    size_t at = contents.find("mpc.baseMVA");
    if (at != std::string::npos) {
      size_t eq = contents.find('=', at);
      if (eq != std::string::npos) {
        base_mva = std::strtod(contents.c_str() + eq + 1, nullptr);
        if (!(base_mva > 0.0) || !std::isfinite(base_mva)) {
          return Status::InvalidArgument(
              "non-positive or non-finite mpc.baseMVA");
        }
      }
    }
  }

  PW_ASSIGN_OR_RETURN(std::string bus_block, ExtractBlock(contents, "bus"));
  PW_ASSIGN_OR_RETURN(NumericMatrix bus_rows, ParseMatrix(bus_block, "bus"));
  PW_ASSIGN_OR_RETURN(std::string branch_block,
                      ExtractBlock(contents, "branch"));
  PW_ASSIGN_OR_RETURN(NumericMatrix branch_rows,
                      ParseMatrix(branch_block, "branch"));

  // gen is optional (a case with only loads would have none).
  NumericMatrix gen_rows;
  auto gen_block = ExtractBlock(contents, "gen");
  if (gen_block.ok()) {
    PW_ASSIGN_OR_RETURN(gen_rows, ParseMatrix(*gen_block, "gen"));
  }

  std::vector<Bus> buses;
  buses.reserve(bus_rows.size());
  for (const auto& row : bus_rows) {
    if (row.size() < 2) {
      return Status::InvalidArgument("bus row needs at least BUS_I and TYPE");
    }
    Bus bus;
    bus.id = static_cast<int>(std::lround(row[0]));
    int type = static_cast<int>(std::lround(row[1]));
    switch (type) {
      case 1:
        bus.type = BusType::kPQ;
        break;
      case 2:
        bus.type = BusType::kPV;
        break;
      case 3:
        bus.type = BusType::kSlack;
        break;
      default:
        return Status::InvalidArgument("bus " + std::to_string(bus.id) +
                                       " has unsupported type " +
                                       std::to_string(type));
    }
    bus.pd_mw = Col(row, 2);
    bus.qd_mvar = Col(row, 3);
    bus.gs_mw = Col(row, 4);
    bus.bs_mvar = Col(row, 5);
    bus.vm_setpoint = Col(row, 7, 1.0);
    bus.base_kv = Col(row, 9);
    buses.push_back(bus);
  }

  // Fold in-service generators into their buses (our model carries one
  // aggregate injection per bus).
  for (const auto& row : gen_rows) {
    if (row.size() < 2) {
      return Status::InvalidArgument("gen row needs at least GEN_BUS and PG");
    }
    int gen_bus = static_cast<int>(std::lround(row[0]));
    double status = Col(row, 7, 1.0);
    if (status == 0.0) continue;
    bool found = false;
    for (Bus& bus : buses) {
      if (bus.id != gen_bus) continue;
      found = true;
      bus.pg_mw += Col(row, 1);
      bus.qg_mvar += Col(row, 2);
      bus.qmax_mvar += Col(row, 3);
      bus.qmin_mvar += Col(row, 4);
      double vg = Col(row, 5, 0.0);
      if (vg > 0.0) bus.vm_setpoint = vg;
      break;
    }
    if (!found) {
      return Status::InvalidArgument("generator references unknown bus " +
                                     std::to_string(gen_bus));
    }
  }

  std::vector<Branch> branches;
  branches.reserve(branch_rows.size());
  for (const auto& row : branch_rows) {
    if (row.size() < 4) {
      return Status::InvalidArgument(
          "branch row needs at least F_BUS T_BUS R X");
    }
    Branch br;
    br.from_bus = static_cast<int>(std::lround(row[0]));
    br.to_bus = static_cast<int>(std::lround(row[1]));
    br.r = row[2];
    br.x = row[3];
    br.b = Col(row, 4);
    br.tap = Col(row, 8);
    br.shift_deg = Col(row, 9);
    br.in_service = Col(row, 10, 1.0) != 0.0;
    branches.push_back(br);
  }

  return Grid::Create(case_name, std::move(buses), std::move(branches),
                      base_mva);
}

Result<Grid> LoadMatpowerCase(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open case file " + path);
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  // Derive the case name from the file name, sans directory/extension.
  std::string name = path;
  size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return ParseMatpowerCase(contents.str(), name);
}

std::string WriteMatpowerCase(const Grid& grid) {
  std::ostringstream out;
  char buffer[256];
  out << "function mpc = " << grid.name() << "\n";
  out << "% generated by phasorwatch\n";
  out << "mpc.version = '2';\n";
  std::snprintf(buffer, sizeof(buffer), "mpc.baseMVA = %g;\n\n",
                grid.base_mva());
  out << buffer;

  out << "%% bus data\n"
      << "%\tbus_i\ttype\tPd\tQd\tGs\tBs\tarea\tVm\tVa\tbaseKV\tzone\tVmax\tVmin\n"
      << "mpc.bus = [\n";
  for (const Bus& bus : grid.buses()) {
    int type = bus.type == BusType::kSlack ? 3
               : bus.type == BusType::kPV  ? 2
                                           : 1;
    std::snprintf(buffer, sizeof(buffer),
                  "\t%d\t%d\t%.12g\t%.12g\t%.12g\t%.12g\t1\t%.12g\t0\t%.12g\t1\t1.1\t0.9;\n",
                  bus.id, type, bus.pd_mw, bus.qd_mvar, bus.gs_mw,
                  bus.bs_mvar, bus.vm_setpoint, bus.base_kv);
    out << buffer;
  }
  out << "];\n\n";

  out << "%% generator data\n"
      << "%\tbus\tPg\tQg\tQmax\tQmin\tVg\tmBase\tstatus\tPmax\tPmin\n"
      << "mpc.gen = [\n";
  for (const Bus& bus : grid.buses()) {
    if (bus.type == BusType::kPQ) continue;
    double qmax = bus.HasQLimits() ? bus.qmax_mvar : 9999.0;
    double qmin = bus.HasQLimits() ? bus.qmin_mvar : -9999.0;
    std::snprintf(buffer, sizeof(buffer),
                  "\t%d\t%.12g\t%.12g\t%.12g\t%.12g\t%.12g\t%.12g\t1\t9999\t0;\n",
                  bus.id, bus.pg_mw, bus.qg_mvar, qmax, qmin,
                  bus.vm_setpoint, grid.base_mva());
    out << buffer;
  }
  out << "];\n\n";

  out << "%% branch data\n"
      << "%\tfbus\ttbus\tr\tx\tb\trateA\trateB\trateC\tratio\tangle\tstatus\n"
      << "mpc.branch = [\n";
  for (const Branch& br : grid.branches()) {
    std::snprintf(buffer, sizeof(buffer),
                  "\t%d\t%d\t%.10g\t%.10g\t%.10g\t0\t0\t0\t%.10g\t%.10g\t%d;\n",
                  br.from_bus, br.to_bus, br.r, br.x, br.b, br.tap,
                  br.shift_deg, br.in_service ? 1 : 0);
    out << buffer;
  }
  out << "];\n";
  return out.str();
}

Status SaveMatpowerCase(const Grid& grid, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  file << WriteMatpowerCase(grid);
  if (!file.good()) {
    return Status::Internal("write to " + path + " failed");
  }
  return Status::OK();
}

}  // namespace phasorwatch::io
