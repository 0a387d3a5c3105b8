"""Token-level check passes for rapid_analyzer.

Every check walks the lexed token stream of one file (comments and
literal payloads are already gone) and yields Finding tuples. The
original nine rapid_lint invariants live here ported onto tokens, plus
the structural families this analyzer was built for: determinism
hazards and throw discipline. (The layering/cycle passes need the
whole-program include graph and live in include_graph.py.)

Check catalog -- names are the waiver names for
``// rapid-lint: allow(<name>)``:

  raw-assert        no raw assert(); use rapid_assert / rapid_dassert
  io-outside-log    no printf/std::cout outside src/common/{logging,table}
  no-rand           no rand()/srand()/std::rand; use common/random.hh Rng
  float-eq          no ==/!= against float literals in src/precision
  include-guard     headers under src/ guard with RAPID_<DIR>_<FILE>_HH
  no-raw-thread     no std::thread/jthread/pthread_create/.detach()
                    outside src/common/parallel.*
  no-unseeded-rng   no std::random_device anywhere; no raw <random>
                    engines, nor the in-house Mt19937_64, outside
                    src/common/random.*
  no-wallclock      no std::chrono::*_clock::now / gettimeofday /
                    clock_gettime outside src/common/parallel.* and
                    src/common/sweep.*
  no-bare-catch     no catch (...) outside src/common/parallel.*
  det-unordered     no std::unordered_map/set in src/: iteration order
                    is hash- and address-dependent, so one range-for
                    silently breaks 1-vs-N-thread golden bit-identity
  det-ptr-key       no pointer-keyed std::map/std::set in src/:
                    ordered by address, i.e. by allocator mood
  det-ptr-hash      no std::hash over pointer types in src/
  det-datetime      no __DATE__/__TIME__/__TIMESTAMP__ in src/
  throw-discipline  outside src/common/error.* and src/common/
                    parallel.*, every throw constructs a rapid::Error
                    subtype (bare rethrow is fine) so ResilientTrainer's
                    e.code() switch stays total
  dl16-quantize     no dlfloat16().quantize(, fp8e4m3(..).quantize(,
                    fp8e5m2().quantize( or fp9().quantize( in src/
                    outside src/precision/float_format.*: DLFloat16
                    and FP8 rounding go through the inline
                    quantizeDl16 and quantizeFp8, so the fast paths
                    stay the only implementations the code runs
  layering          declared module-tier order (include_graph.py)
  include-cycle     file- or module-level include cycles (ditto)
"""

from .include_graph import Finding

# File-prefix allow lists, mirroring the original rapid_lint policy.
IO_ALLOWED = ("src/common/logging.", "src/common/table.")
THREAD_ALLOWED = ("src/common/parallel.",)
RNG_ALLOWED = ("src/common/random.",)
WALLCLOCK_ALLOWED = ("src/common/parallel.", "src/common/sweep.")
BARE_CATCH_ALLOWED = ("src/common/parallel.",)
THROW_ALLOWED = ("src/common/error.", "src/common/parallel.")
DL16_QUANTIZE_ALLOWED = ("src/precision/float_format.",)

RNG_ENGINES = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b", "subtract_with_carry_engine",
    "linear_congruential_engine", "mersenne_twister_engine",
    "ranlux24", "ranlux48", "ranlux24_base", "ranlux48_base",
}

# The in-house engine behind rapid::Rng. Matched by name however it is
# qualified (rapid::, ::rapid::, a using-declaration or none at all).
INHOUSE_RNG_ENGINES = {"Mt19937_64"}

UNORDERED_CONTAINERS = {
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
}

ORDERED_KEYED = {"map", "set", "multimap", "multiset"}

DATETIME_MACROS = {"__DATE__", "__TIME__", "__TIMESTAMP__"}


class TokenFile:
    """One file's token stream plus cheap navigation helpers."""

    def __init__(self, rel_posix, tokens):
        self.rel = rel_posix
        self.tokens = tokens

    def tok(self, i):
        return self.tokens[i] if 0 <= i < len(self.tokens) else None

    def is_punct(self, i, text):
        t = self.tok(i)
        return t is not None and t.kind == "PUNCT" and t.text == text

    def is_id(self, i, text=None):
        t = self.tok(i)
        if t is None or t.kind != "ID":
            return False
        return text is None or t.text == text

    def qualified_by_std(self, i):
        """True when token i is written std::<token i> (allowing
        nothing fancier than one level, which is all the standard
        library needs)."""
        return self.is_punct(i - 1, "::") and self.is_id(i - 2, "std")

    def member_access(self, i):
        """True when token i is reached via '.', '->', or a non-std
        qualifier, i.e. it is not the free function of that name."""
        if self.is_punct(i - 1, ".") or self.is_punct(i - 1, "->"):
            return True
        if self.is_punct(i - 1, "::") and not self.is_id(i - 2, "std"):
            return True
        return False

    def template_args(self, i):
        """Token index ranges of the top-level template arguments of a
        '<' at index i; returns (list_of_(start, end), index_after) or
        (None, i) when no balanced argument list is found. '>>' closes
        two levels, as in C++11."""
        if not self.is_punct(i, "<"):
            return None, i
        depth = 1
        args = []
        start = i + 1
        j = i + 1
        while j < len(self.tokens):
            t = self.tokens[j]
            if t.kind == "PUNCT":
                if t.text == "<":
                    depth += 1
                elif t.text == ">":
                    depth -= 1
                    if depth == 0:
                        args.append((start, j))
                        return args, j + 1
                elif t.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        args.append((start, j))
                        return args, j + 1
                elif t.text == "," and depth == 1:
                    args.append((start, j))
                    start = j + 1
                elif t.text in ("(", "{", "["):
                    # Bail out of expressions; checks only care about
                    # type argument lists.
                    return None, i
                elif t.text == ";":
                    return None, i
            j += 1
        return None, i


def _finding(tf, line, check, message):
    return Finding(tf.rel, line, check, message)


# ---------------------------------------------------------------------------
# Ported rapid_lint checks.
# ---------------------------------------------------------------------------

def check_raw_assert(tf):
    for i, t in enumerate(tf.tokens):
        if (t.kind == "ID" and t.text == "assert"
                and tf.is_punct(i + 1, "(")
                and not tf.member_access(i)
                and not tf.qualified_by_std(i)):
            yield _finding(tf, t.line, "raw-assert",
                           "use rapid_assert/rapid_dassert instead of "
                           "raw assert()")


def check_io_outside_log(tf):
    if not tf.rel.startswith("src/") or tf.rel.startswith(IO_ALLOWED):
        return
    message = ("direct stdio outside src/common/logging and "
               "src/common/table; use rapid_inform/rapid_warn or the "
               "table renderer")
    for i, t in enumerate(tf.tokens):
        if t.kind != "ID":
            continue
        if (t.text in ("printf", "fprintf", "puts", "putchar")
                and tf.is_punct(i + 1, "(") and not tf.member_access(i)):
            yield _finding(tf, t.line, "io-outside-log", message)
        elif (t.text in ("cout", "cerr") and tf.qualified_by_std(i)):
            yield _finding(tf, t.line, "io-outside-log", message)


def check_no_rand(tf):
    for i, t in enumerate(tf.tokens):
        if (t.kind == "ID" and t.text in ("rand", "srand")
                and tf.is_punct(i + 1, "(")
                and not tf.member_access(i)):
            yield _finding(tf, t.line, "no-rand",
                           "use the seeded rapid::Rng from "
                           "common/random.hh, not rand()/srand()")


def _is_float_literal(text):
    if text.endswith(("f", "F")):
        text = text[:-1]
        if text.isdigit():
            return True
    if "." not in text:
        return False
    mantissa = text.lower().split("e")[0]
    return mantissa.replace(".", "", 1).replace("-", "").isdigit()


def check_float_eq(tf):
    if not tf.rel.startswith("src/precision/"):
        return
    for i, t in enumerate(tf.tokens):
        if t.kind != "PUNCT" or t.text not in ("==", "!="):
            continue
        neighbours = [tf.tok(i - 1), tf.tok(i + 1)]
        nxt = tf.tok(i + 1)
        if (nxt is not None and nxt.kind == "PUNCT"
                and nxt.text in ("-", "+")):
            neighbours.append(tf.tok(i + 2))
        if any(n is not None and n.kind == "NUM"
               and _is_float_literal(n.text) for n in neighbours):
            yield _finding(tf, t.line, "float-eq",
                           "floating-point ==/!= in the precision "
                           "layer; compare bit patterns or use "
                           "std::fpclassify")


def check_include_guard(tf):
    parts = tf.rel.split("/")
    if parts[0] != "src" or not tf.rel.endswith((".hh", ".h")):
        return
    stem = parts[-1].rsplit(".", 1)[0]
    want = ("RAPID_"
            + "_".join(p.upper().replace("-", "_")
                       for p in parts[1:-1] + [stem])
            + "_HH")
    first_ifndef = None
    defines = set()
    for i, t in enumerate(tf.tokens):
        if t.kind != "DIRECTIVE":
            continue
        if t.text == "ifndef" and first_ifndef is None:
            nxt = tf.tok(i + 1)
            first_ifndef = (nxt.text if nxt is not None
                            and nxt.kind == "ID" else "")
        elif t.text == "define":
            nxt = tf.tok(i + 1)
            if nxt is not None and nxt.kind == "ID":
                defines.add(nxt.text)
    if first_ifndef is None:
        yield _finding(tf, 1, "include-guard",
                       "missing include guard, expected " + want)
    elif first_ifndef != want:
        yield _finding(tf, 1, "include-guard",
                       "include guard %s, expected %s"
                       % (first_ifndef, want))
    elif want not in defines:
        yield _finding(tf, 1, "include-guard",
                       "guard %s is never #defined" % want)


def check_no_raw_thread(tf):
    if tf.rel.startswith(THREAD_ALLOWED):
        return
    message = ("raw thread primitive outside src/common/parallel.*; "
               "use rapid::parallelFor or rapid::ThreadPool so sweeps "
               "stay deterministic")
    for i, t in enumerate(tf.tokens):
        if t.kind != "ID":
            continue
        if t.text in ("thread", "jthread") and tf.qualified_by_std(i):
            yield _finding(tf, t.line, "no-raw-thread", message)
        elif (t.text == "pthread_create" and tf.is_punct(i + 1, "(")
                and not tf.member_access(i)):
            yield _finding(tf, t.line, "no-raw-thread", message)
        elif (t.text == "detach" and tf.is_punct(i + 1, "(")
                and (tf.is_punct(i - 1, ".")
                     or tf.is_punct(i - 1, "->"))):
            yield _finding(tf, t.line, "no-raw-thread", message)


def check_no_unseeded_rng(tf):
    message = ("unseeded or raw randomness; derive a seeded rapid::Rng "
               "via common/random.hh (mixSeed for per-item streams) so "
               "fault injection and sweeps replay bit-identically")
    for i, t in enumerate(tf.tokens):
        if t.kind != "ID":
            continue
        if t.text in INHOUSE_RNG_ENGINES:
            if not tf.rel.startswith(RNG_ALLOWED):
                yield _finding(tf, t.line, "no-unseeded-rng", message)
            continue
        if not tf.qualified_by_std(i):
            continue
        if t.text == "random_device":
            yield _finding(tf, t.line, "no-unseeded-rng", message)
        elif (t.text in RNG_ENGINES
                and not tf.rel.startswith(RNG_ALLOWED)):
            yield _finding(tf, t.line, "no-unseeded-rng", message)


def check_no_wallclock(tf):
    if tf.rel.startswith(WALLCLOCK_ALLOWED):
        return
    message = ("wall-clock read outside src/common/parallel.* and "
               "src/common/sweep.*; simulators and benches run on the "
               "virtual clock so output stays bit-identical across "
               "runs and thread counts")
    for i, t in enumerate(tf.tokens):
        if t.kind != "ID":
            continue
        if (t.text in ("gettimeofday", "clock_gettime")
                and tf.is_punct(i + 1, "(")
                and not tf.member_access(i)):
            yield _finding(tf, t.line, "no-wallclock", message)
        elif (t.text == "now" and t.line
                and tf.is_punct(i - 1, "::")
                and tf.is_id(i - 2) and tf.tok(i - 2).text.endswith("_clock")
                and tf.is_punct(i - 3, "::")
                and tf.is_id(i - 4, "chrono")):
            yield _finding(tf, t.line, "no-wallclock", message)


def check_no_bare_catch(tf):
    if tf.rel.startswith(BARE_CATCH_ALLOWED):
        return
    for i, t in enumerate(tf.tokens):
        if (t.kind == "ID" and t.text == "catch"
                and tf.is_punct(i + 1, "(")
                and tf.is_punct(i + 2, "...")
                and tf.is_punct(i + 3, ")")):
            yield _finding(tf, t.line, "no-bare-catch",
                           "catch (...) swallows the error taxonomy; "
                           "catch rapid::Error and switch on e.code() "
                           "so numeric faults stay distinguishable "
                           "from logic bugs")


# ---------------------------------------------------------------------------
# Determinism family (new with the analyzer).
# ---------------------------------------------------------------------------

def _range_has_pointer(tf, start, end):
    return any(tf.tokens[j].kind == "PUNCT" and tf.tokens[j].text == "*"
               for j in range(start, end))


def check_det_unordered(tf):
    if not tf.rel.startswith("src/"):
        return
    for i, t in enumerate(tf.tokens):
        if (t.kind == "ID" and t.text in UNORDERED_CONTAINERS
                and tf.qualified_by_std(i)):
            yield _finding(
                tf, t.line, "det-unordered",
                "std::%s in model code: iteration order is hash- and "
                "address-dependent, so any range-for over it breaks "
                "1-vs-N-thread golden bit-identity; use std::map/"
                "std::set with value keys (waivable only with proof "
                "the container is never iterated)" % t.text)


def check_det_ptr_key(tf):
    if not tf.rel.startswith("src/"):
        return
    for i, t in enumerate(tf.tokens):
        if (t.kind != "ID" or t.text not in ORDERED_KEYED
                or not tf.qualified_by_std(i)):
            continue
        args, _ = tf.template_args(i + 1)
        if not args:
            continue
        key_start, key_end = args[0]
        if _range_has_pointer(tf, key_start, key_end):
            yield _finding(
                tf, t.line, "det-ptr-key",
                "pointer-keyed std::%s: iteration order is allocation-"
                "address order, which differs run to run; key by a "
                "stable id (index, name) instead" % t.text)


def check_det_ptr_hash(tf):
    if not tf.rel.startswith("src/"):
        return
    for i, t in enumerate(tf.tokens):
        if (t.kind != "ID" or t.text != "hash"
                or not tf.qualified_by_std(i)):
            continue
        args, _ = tf.template_args(i + 1)
        if args and _range_has_pointer(tf, args[0][0], args[0][1]):
            yield _finding(
                tf, t.line, "det-ptr-hash",
                "std::hash over a pointer type hashes the allocation "
                "address; the value differs run to run and must never "
                "feed model state or output")


def check_det_datetime(tf):
    if not tf.rel.startswith("src/"):
        return
    for t in tf.tokens:
        if t.kind == "ID" and t.text in DATETIME_MACROS:
            yield _finding(
                tf, t.line, "det-datetime",
                "%s expands to the build's wall time; it would make "
                "otherwise-identical builds disagree in golden-diffed "
                "output" % t.text)


# ---------------------------------------------------------------------------
# Throw discipline (new with the analyzer).
# ---------------------------------------------------------------------------

def check_throw_discipline(tf):
    if not tf.rel.startswith("src/") or tf.rel.startswith(THROW_ALLOWED):
        return
    for i, t in enumerate(tf.tokens):
        if t.kind != "ID" or t.text != "throw":
            continue
        # Bare rethrow keeps whatever rapid::Error was in flight.
        if tf.is_punct(i + 1, ";"):
            continue
        j = i + 1
        # Skip leading :: / rapid:: qualification.
        if tf.is_punct(j, "::"):
            j += 1
        if tf.is_id(j, "rapid") and tf.is_punct(j + 1, "::"):
            j += 2
        if (tf.is_id(j) and tf.tok(j).text.endswith("Error")
                and (tf.is_punct(j + 1, "(")
                     or tf.is_punct(j + 1, "{"))):
            continue
        yield _finding(
            tf, t.line, "throw-discipline",
            "raw throw outside src/common/error.*; construct a "
            "rapid::Error subtype (or use RAPID_CHECK_ARG/CONFIG/"
            "NUMERIC) so ResilientTrainer's e.code() recovery switch "
            "stays total")


# ---------------------------------------------------------------------------
# One rounding path per reduced float format.
# ---------------------------------------------------------------------------

#: Format accessors whose generic-codec quantize() has an inline fast
#: path, and that fast path.
CODEC_FAST_PATHS = {
    "dlfloat16": "quantizeDl16()",
    "fp8e4m3": "quantizeFp8()",
    "fp8e5m2": "quantizeFp8()",
    "fp9": "quantizeFp8() (the FP8 -> FP9 step is exact)",
}


def _close_paren(tf, i):
    """Index of the ')' matching the '(' at token @p i, or None."""
    depth = 0
    for j in range(i, len(tf.tokens)):
        if tf.is_punct(j, "("):
            depth += 1
        elif tf.is_punct(j, ")"):
            depth -= 1
            if depth == 0:
                return j
    return None


def check_dl16_quantize(tf):
    if (not tf.rel.startswith("src/")
            or tf.rel.startswith(DL16_QUANTIZE_ALLOWED)):
        return
    for i, t in enumerate(tf.tokens):
        if (t.kind != "ID" or t.text not in CODEC_FAST_PATHS
                or tf.is_punct(i - 1, ".") or tf.is_punct(i - 1, "->")
                or not tf.is_punct(i + 1, "(")):
            continue
        j = _close_paren(tf, i + 1)
        if (j is not None and tf.is_punct(j + 1, ".")
                and tf.is_id(j + 2, "quantize")
                and tf.is_punct(j + 3, "(")):
            yield _finding(
                tf, t.line, "dl16-quantize",
                "%s().quantize() runs the generic codec; round with "
                "%s from precision/float_format.hh (bit-identical, "
                "pinned by tests/test_float_format.cc)"
                % (t.text, CODEC_FAST_PATHS[t.text]))


#: Every token-stream check, in report order. The layering and cycle
#: passes run from the include graph in engine.py.
TOKEN_CHECKS = (
    check_raw_assert,
    check_io_outside_log,
    check_no_rand,
    check_float_eq,
    check_include_guard,
    check_no_raw_thread,
    check_no_unseeded_rng,
    check_no_wallclock,
    check_no_bare_catch,
    check_det_unordered,
    check_det_ptr_key,
    check_det_ptr_hash,
    check_det_datetime,
    check_throw_discipline,
    check_dl16_quantize,
)

#: The full check catalog (for --list-checks and the JSON report).
ALL_CHECKS = (
    "raw-assert", "io-outside-log", "no-rand", "float-eq",
    "include-guard", "no-raw-thread", "no-unseeded-rng", "no-wallclock",
    "no-bare-catch", "det-unordered", "det-ptr-key", "det-ptr-hash",
    "det-datetime", "throw-discipline", "dl16-quantize", "layering",
    "include-cycle",
)
