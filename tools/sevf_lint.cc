/**
 * @file
 * sevf_lint: the project's custom invariant checker (CLI).
 *
 * All analysis lives in tools/sevf_lint_engine.h; this file is argument
 * parsing and reporting. The engine walks a source tree (default: src/)
 * and enforces the conventions the compiler cannot:
 *
 *   header-guard      .h guards are SEVF_<DIR>_<FILE>_H_
 *   include-path      quoted includes are project-relative ("base/status.h",
 *                     never "../x.h" or "status.h") and name real files
 *   layer-include     service/ headers are included only from service/,
 *                     core/ headers only from core/ and service/
 *   banned-construct  no throw, rand(), raw new[], and no std::cout
 *                     outside stats/ (tools/ is not linted) — the boot
 *                     path is exception-free and deterministic
 *   cc-h-pairing      a .cc with a same-named sibling .h includes that
 *                     header first, so every interface header is
 *                     self-contained-compiled at least once
 *   unguarded-result  heuristic: a variable declared Result<...> must be
 *                     guarded (isOk()/valueOr()/errorOr()) in the same
 *                     function before .value()/.take()
 *   secret-flow       intraprocedural dataflow: a variable assigned from
 *                     a secret-source function (dhSharedKey, open,
 *                     keyFor, ... — extend with --secret-sources) is
 *                     tracked through same-function assignments; flowing
 *                     it into a logging/serialization sink (inform,
 *                     record, recordData, addItem, toHex, render, ...)
 *                     without an intervening declassify() is flagged
 *   interproc-secret-flow  the same dataflow across function boundaries:
 *                     per-function summaries (secret-returning callees,
 *                     sink-forwarding parameters) are computed to a
 *                     fixed point over the cross-TU call graph, so a
 *                     secret laundered through a helper still trips
 *   guarded-by        lockset analysis over SEVF_GUARDED_BY /
 *                     SEVF_REQUIRES annotations (base/thread_annotations.h):
 *                     a guarded field accessed, or an SEVF_REQUIRES
 *                     function called, without the guard held is flagged
 *   lock-order        the global lock-acquisition-order graph (direct +
 *                     transitive-through-calls) is checked against
 *                     tools/lock-order.txt ('order A B' / 'exclusive A B')
 *                     and searched for ordering cycles
 *   unused-suppression  every "sevf_lint: allow(...)" comment must
 *                     actually suppress a violation, and every
 *                     SEVF_TCB_EXEMPT must be reached by the TCB
 *                     closure; stale ones rot into blanket permission
 *                     and are errors themselves
 *   tcb-reach / tcb-budget / tcb-construct / tcb-recursion
 *                     the root-of-trust audit (base/trust_zones.h):
 *                     the transitive callee closure of every SEVF_TCB
 *                     entry point is inventoried per module and checked
 *                     against tools/tcb-budget.txt - size budget,
 *                     banned modules (the verifier must never reach
 *                     compress/gzip_lite or compress/huffman), banned
 *                     APIs/dynamic allocation, call-graph cycles
 *   untrusted-bounds  inside SEVF_UNTRUSTED_INPUT parsers (bzImage/
 *                     ELF/cpio headers, LZ4 frames, fw_cfg), offset/
 *                     length arithmetic used in subscripts, subspan()
 *                     or copies needs a preceding bounds-check idiom
 *                     or an audited suppression
 *
 * Suppress a finding with a trailing or preceding comment:
 *
 *     do_scary_thing(); // sevf_lint: allow(banned-construct)
 *
 * Usage:
 *     sevf_lint --root <dir> [--secret-sources <file>]
 *               [--lock-order <file>] [--tcb-budget <file>]
 *               [--jobs <n>] [--stats] [--format=json]
 *               [--tcb] [--tcb-out <file>]
 *                                  lint a tree, exit 1 on violations;
 *                                  --secret-sources adds one source
 *                                  function name per line ('#' comments);
 *                                  --lock-order loads the acquisition-
 *                                  order spec; --tcb-budget loads the
 *                                  TCB budget (default: <root>/
 *                                  tcb-budget.txt when present);
 *                                  --jobs 0 = hardware; --stats prints
 *                                  per-pass wall time; --format=json
 *                                  emits the machine-readable report
 *                                  (violations + TCB inventory);
 *                                  --tcb prints the per-module TCB
 *                                  inventory JSON; --tcb-out writes it
 *                                  to a file (for the CI baseline diff)
 *     sevf_lint --selftest <dir>   run the fixture self-test: each
 *                                  subdirectory is named for the rule it
 *                                  must trip ("suppressed" must be clean)
 *
 * Registered as ctests so every test run is also a lint run.
 */
#include <iostream>

#include "tools/sevf_lint_engine.h"

namespace {

using sevf::lint::LockOrderSpec;
using sevf::lint::Options;
using sevf::lint::RunResult;
using sevf::lint::Violation;

namespace fs = std::filesystem;

/** One secret-source function name per line; '#' starts a comment. */
std::optional<std::vector<std::string>>
loadSecretSources(const fs::path &path)
{
    std::ifstream in(path);
    if (!in) {
        return std::nullopt;
    }
    std::vector<std::string> sources;
    std::string line;
    while (std::getline(in, line)) {
        size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream is(line);
        std::string name;
        if (is >> name) {
            sources.push_back(name);
        }
    }
    return sources;
}

void
printStats(const RunResult &result)
{
    long long total = 0;
    for (const auto &s : result.stats) {
        total += s.ns;
    }
    std::cout << "pass timings:\n";
    for (const auto &s : result.stats) {
        std::cout << "  " << s.name << ": " << s.ns / 1000000.0 << " ms\n";
    }
    std::cout << "  total: " << total / 1000000.0 << " ms\n";
}

struct OutputOptions {
    bool stats = false;
    bool json = false;     //!< --format=json: machine-readable report
    bool print_tcb = false; //!< --tcb: inventory JSON on stdout
    std::string tcb_out;   //!< --tcb-out: inventory JSON to a file
};

int
lintTree(Options opts, const OutputOptions &out)
{
    if (!fs::is_directory(opts.root)) {
        std::cerr << "sevf_lint: not a directory: " << opts.root << "\n";
        return 2;
    }
    RunResult result = sevf::lint::runLint(opts);
    if (out.json) {
        std::cout << sevf::lint::renderReportJson(result);
    } else {
        for (const Violation &v : result.violations) {
            std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
                      << v.message << "\n";
        }
    }
    if (out.print_tcb && !out.json) {
        std::cout << sevf::lint::renderTcbJson(result.tcb) << "\n";
    }
    if (!out.tcb_out.empty()) {
        std::ofstream f(out.tcb_out);
        if (!f) {
            std::cerr << "sevf_lint: could not write " << out.tcb_out
                      << "\n";
            return 2;
        }
        f << sevf::lint::renderTcbJson(result.tcb) << "\n";
    }
    if (out.stats) {
        printStats(result);
    }
    if (!result.violations.empty()) {
        if (!out.json) {
            std::cout << result.violations.size()
                      << " violation(s) under " << opts.root << "\n";
        }
        return 1;
    }
    if (!out.json && !out.print_tcb) {
        std::cout << "sevf_lint: clean (" << opts.root.generic_string()
                  << ")\n";
    }
    return 0;
}

/**
 * Fixture self-test: every subdirectory of @p fixture_root is named for
 * the rule its files must trip; the special directory "suppressed" holds
 * rule-breaking code with suppression comments and must lint clean.
 * Fixtures run single-threaded with no lock-order spec, so cycle
 * detection (not spec matching) is what the lock-order fixture
 * exercises.
 */
int
selfTest(const fs::path &fixture_root)
{
    if (!fs::is_directory(fixture_root)) {
        std::cerr << "sevf_lint: fixture root missing: " << fixture_root
                  << "\n";
        return 2;
    }
    int failures = 0;
    int cases = 0;
    for (const auto &entry : fs::directory_iterator(fixture_root)) {
        if (!entry.is_directory()) {
            continue;
        }
        ++cases;
        std::string rule = entry.path().filename().string();
        Options opts;
        opts.root = entry.path();
        opts.jobs = 1;
        std::vector<Violation> violations =
            sevf::lint::runLint(opts).violations;
        if (rule == "suppressed") {
            if (!violations.empty()) {
                std::cerr << "FAIL " << rule << ": expected clean, got "
                          << violations.size() << " violation(s); first: ["
                          << violations.front().rule << "] "
                          << violations.front().message << "\n";
                ++failures;
            } else {
                std::cout << "ok   " << rule << " (clean as expected)\n";
            }
            continue;
        }
        bool hit = std::any_of(
            violations.begin(), violations.end(),
            [&](const Violation &v) { return v.rule == rule; });
        if (!hit) {
            std::cerr << "FAIL " << rule << ": fixture did not trip the '"
                      << rule << "' rule\n";
            for (const Violation &v : violations) {
                std::cerr << "  got " << v.file << ":" << v.line << ": ["
                          << v.rule << "] " << v.message << "\n";
            }
            ++failures;
        } else {
            std::cout << "ok   " << rule << "\n";
        }
    }
    if (cases == 0) {
        std::cerr << "sevf_lint: no fixture cases found\n";
        return 2;
    }
    std::cout << (cases - failures) << "/" << cases
              << " fixture cases passed\n";
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string root;
    std::string selftest_root;
    OutputOptions out;
    Options opts;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--root" && i + 1 < args.size()) {
            root = args[++i];
        } else if (args[i] == "--selftest" && i + 1 < args.size()) {
            selftest_root = args[++i];
        } else if (args[i] == "--secret-sources" && i + 1 < args.size()) {
            auto loaded = loadSecretSources(args[++i]);
            if (!loaded) {
                std::cerr << "sevf_lint: could not read secret-sources "
                             "file: "
                          << args[i] << "\n";
                return 2;
            }
            opts.extra_secret_sources.insert(
                opts.extra_secret_sources.end(), loaded->begin(),
                loaded->end());
        } else if (args[i] == "--lock-order" && i + 1 < args.size()) {
            auto spec = sevf::lint::loadLockOrderSpec(args[++i]);
            if (!spec) {
                std::cerr << "sevf_lint: could not read lock-order file: "
                          << args[i] << "\n";
                return 2;
            }
            opts.lock_order_spec = std::move(*spec);
        } else if (args[i] == "--tcb-budget" && i + 1 < args.size()) {
            auto budget = sevf::lint::loadTcbBudget(args[++i]);
            if (!budget) {
                std::cerr << "sevf_lint: could not read tcb-budget file: "
                          << args[i] << "\n";
                return 2;
            }
            opts.tcb_budget = std::move(*budget);
        } else if (args[i] == "--jobs" && i + 1 < args.size()) {
            opts.jobs = static_cast<unsigned>(std::stoul(args[++i]));
        } else if (args[i] == "--stats") {
            out.stats = true;
        } else if (args[i] == "--format=json") {
            out.json = true;
        } else if (args[i] == "--tcb") {
            out.print_tcb = true;
        } else if (args[i] == "--tcb-out" && i + 1 < args.size()) {
            out.tcb_out = args[++i];
        } else {
            std::cerr << "usage: sevf_lint [--root <dir>] "
                         "[--secret-sources <file>] [--lock-order <file>] "
                         "[--tcb-budget <file>] [--jobs <n>] [--stats] "
                         "[--format=json] [--tcb] [--tcb-out <file>] | "
                         "--selftest <fixture_root>\n";
            return 2;
        }
    }
    if (!selftest_root.empty()) {
        return selfTest(selftest_root);
    }
    opts.root = root.empty() ? "src" : root;
    return lintTree(std::move(opts), out);
}
