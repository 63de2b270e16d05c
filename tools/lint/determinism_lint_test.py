#!/usr/bin/env python3
"""Tests for determinism_lint.py: every planted violation in testdata/ must
be caught, justified suppressions must silence, and the in-tree fp-contract
check must hold against the real CMakeLists.txt."""

import os
import subprocess
import sys
import unittest

LINT_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LINT_DIR))
TESTDATA = os.path.join(LINT_DIR, "testdata")

sys.path.insert(0, LINT_DIR)
import determinism_lint  # noqa: E402


def rules_by_line(findings):
    return {(f.line, f.rule) for f in findings}


class FixtureViolationsTest(unittest.TestCase):
    """Each planted violation fires, each clean construct stays silent."""

    @classmethod
    def setUpClass(cls):
        cls.cpp_path = os.path.join(TESTDATA, "violations.cpp")
        cls.cpp = determinism_lint.lint_file(cls.cpp_path, REPO_ROOT)
        cls.h_path = os.path.join(TESTDATA, "violations.h")
        cls.h = determinism_lint.lint_file(cls.h_path, REPO_ROOT)
        with open(cls.cpp_path) as handle:
            cls.cpp_lines = handle.read().splitlines()
        with open(cls.h_path) as handle:
            cls.h_lines = handle.read().splitlines()

    def planted(self, lines, marker):
        """1-based line numbers carrying a `VIOLATION <rule>` marker."""
        return [i + 1 for i, line in enumerate(lines)
                if f"VIOLATION {marker}" in line]

    def assert_fires(self, findings, lines, rule):
        hits = rules_by_line(findings)
        for line_no in self.planted(lines, rule):
            self.assertIn((line_no, rule), hits,
                          f"line {line_no}: planted [{rule}] not caught")

    def test_rng_violations_fire(self):
        self.assert_fires(self.cpp, self.cpp_lines, "rng")

    def test_unordered_iteration_fires(self):
        self.assert_fires(self.cpp, self.cpp_lines, "unordered-iter")

    def test_reduce_fires(self):
        self.assert_fires(self.cpp, self.cpp_lines, "reduce")

    def test_atomic_float_fires(self):
        self.assert_fires(self.cpp, self.cpp_lines, "atomic-float")

    def test_nodiscard_fires_in_headers(self):
        self.assert_fires(self.h, self.h_lines, "nodiscard")

    def test_justified_suppression_silences(self):
        # The suppressed loop inside SuppressedUnorderedIteration: no
        # unordered-iter finding may point between its markers.
        start = next(i + 1 for i, l in enumerate(self.cpp_lines)
                     if "SuppressedUnorderedIteration" in l)
        end = start + 7
        for finding in self.cpp:
            if finding.rule == "unordered-iter":
                self.assertFalse(
                    start <= finding.line <= end,
                    f"justified suppression ignored at line {finding.line}")

    def test_unjustified_suppression_is_itself_a_finding(self):
        bad = next(i + 1 for i, l in enumerate(self.cpp_lines)
                   if "lint:ordered-ok" in l and "(" not in
                   l.split("lint:ordered-ok", 1)[1][:1])
        self.assertTrue(
            any(f.line == bad and "justification" in f.message
                for f in self.cpp),
            "suppression without justification must be reported")

    def test_comments_and_strings_do_not_fire(self):
        prose = [i + 1 for i, l in enumerate(self.cpp_lines)
                 if "kNotCode" in l or "inside a comment" in l]
        for finding in self.cpp:
            self.assertNotIn(finding.line, prose,
                             f"false positive on prose/string: {finding}")

    def test_annotated_declarations_stay_silent(self):
        annotated = [i + 1 for i, l in enumerate(self.h_lines)
                     if "AnnotatedInline" in l
                     or "AnnotatedPrecedingLine" in l]
        for finding in self.h:
            if finding.rule == "nodiscard":
                self.assertNotIn(finding.line, annotated)


class DatagenExemptionTest(unittest.TestCase):
    def test_rng_allowed_under_datagen(self):
        # The same rand() fixture linted as if it lived in src/datagen/
        # must produce no rng findings. It is written under a temporary
        # root, never into the real src/, which the whole-tree lint scans.
        import tempfile
        with open(os.path.join(TESTDATA, "violations.cpp")) as handle:
            content = handle.read()
        with tempfile.TemporaryDirectory() as fake_root:
            datagen = os.path.join(fake_root, "src", "datagen")
            os.makedirs(datagen)
            fake_path = os.path.join(datagen, "violations.cpp")
            with open(fake_path, "w") as handle:
                handle.write(content)
            findings = determinism_lint.lint_file(fake_path, fake_root)
            self.assertFalse([f for f in findings if f.rule == "rng"],
                             "datagen/ exemption not honored")


class FpContractTest(unittest.TestCase):
    def test_tree_kernel_tus_all_carry_the_flag(self):
        self.assertEqual(determinism_lint.lint_fp_contract(REPO_ROOT), [])

    def test_missing_flag_detected(self):
        # A doctored CMakeLists missing the flag on one kernel TU.
        import tempfile
        with tempfile.TemporaryDirectory() as fake_root:
            simd = os.path.join(fake_root, "src", "simd")
            os.makedirs(simd)
            with open(os.path.join(simd, "kernels_scalar.cpp"), "w") as f:
                f.write("// kernel tu\n")
            with open(os.path.join(fake_root, "CMakeLists.txt"), "w") as f:
                f.write('set_source_files_properties('
                        'src/simd/kernels_scalar.cpp PROPERTIES '
                        'COMPILE_OPTIONS "-fno-tree-vectorize")\n')
            findings = determinism_lint.lint_fp_contract(fake_root)
            self.assertTrue(findings and
                            findings[0].rule == "fp-contract")

    def test_unconfigured_kernel_tu_detected(self):
        import tempfile
        with tempfile.TemporaryDirectory() as fake_root:
            simd = os.path.join(fake_root, "src", "simd")
            os.makedirs(simd)
            with open(os.path.join(simd, "kernels_newtier.cpp"), "w") as f:
                f.write("// kernel tu\n")
            with open(os.path.join(fake_root, "CMakeLists.txt"), "w") as f:
                f.write("# no per-TU properties at all\n")
            findings = determinism_lint.lint_fp_contract(fake_root)
            self.assertTrue(findings and
                            "no set_source_files_properties"
                            in findings[0].message)


class WholeTreeTest(unittest.TestCase):
    def test_src_tree_is_clean(self):
        """The shipped tree must lint clean — this is the CI gate."""
        result = subprocess.run(
            [sys.executable,
             os.path.join(LINT_DIR, "determinism_lint.py"),
             "--root", REPO_ROOT],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 0,
                         "determinism lint found violations in src/:\n" +
                         result.stdout + result.stderr)

    def test_fixture_file_fails_via_cli(self):
        """Planted violations demonstrably reject through the CLI."""
        result = subprocess.run(
            [sys.executable,
             os.path.join(LINT_DIR, "determinism_lint.py"),
             "--root", REPO_ROOT,
             os.path.join(TESTDATA, "violations.cpp")],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 1)
        self.assertIn("[rng]", result.stdout)


if __name__ == "__main__":
    unittest.main()
