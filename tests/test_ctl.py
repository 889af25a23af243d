"""CodeML control-file parsing and writing."""

import pytest

from repro.io.ctl import ControlFile, parse_ctl, parse_ctl_text, write_ctl

EXAMPLE = """
      seqfile = gene.phy  * the alignment
     treefile = gene.nwk
      outfile = results.mlc

        model = 2
      NSsites = 2
    fix_omega = 1   * H0
        omega = 1.0
        kappa = 2.5
    CodonFreq = 3
    cleandata = 1
"""


class TestParse:
    def test_example(self):
        ctl = parse_ctl_text(EXAMPLE)
        assert ctl.seqfile == "gene.phy"
        assert ctl.treefile == "gene.nwk"
        assert ctl.fix_omega == 1
        assert ctl.hypothesis == "H0"
        assert ctl.kappa == 2.5
        assert ctl.codon_freq == 3
        assert ctl.freq_method == "f61"
        assert ctl.cleandata == 1

    def test_defaults(self):
        ctl = parse_ctl_text("seqfile = a.phy\ntreefile = a.nwk\n")
        assert ctl.model == 2 and ctl.nssites == 2
        assert ctl.hypothesis == "H1"
        assert ctl.freq_method == "f3x4"

    def test_comments_stripped(self):
        ctl = parse_ctl_text("kappa = 3.0 * start value\n* a full comment line\n")
        assert ctl.kappa == 3.0

    def test_case_insensitive_keys(self):
        ctl = parse_ctl_text("CODONFREQ = 1\nFix_Omega = 1\n")
        assert ctl.codon_freq == 1 and ctl.fix_omega == 1

    def test_unknown_keys_collected(self):
        ctl = parse_ctl_text("ndata = 5\nRateAncestor = 1\nengine = codeml\n")
        assert ctl.unknown == {"ndata": "5", "RateAncestor": "1", "engine": "codeml"}

    def test_extension_keys(self):
        ctl = parse_ctl_text("max_iterations = 42\nseed = 7\n")
        assert ctl.max_iterations == 42
        assert ctl.seed == 7

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_ctl_text("seqfile gene.phy\n")

    def test_bad_cast_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_ctl_text("kappa = fast\n")


class TestValidation:
    def test_wrong_model_rejected(self):
        with pytest.raises(ValueError, match="model = 2"):
            parse_ctl_text("model = 0\n")

    def test_wrong_nssites_rejected(self):
        with pytest.raises(ValueError, match="NSsites = 2"):
            parse_ctl_text("NSsites = 8\n")

    def test_bad_fix_omega(self):
        with pytest.raises(ValueError, match="fix_omega"):
            parse_ctl_text("fix_omega = 2\n")

    def test_bad_codon_freq(self):
        with pytest.raises(ValueError, match="CodonFreq"):
            parse_ctl_text("CodonFreq = 9\n")

    def test_nonuniversal_code_rejected(self):
        with pytest.raises(ValueError, match="icode"):
            parse_ctl_text("icode = 1\n")

    def test_bad_iteration_budget(self):
        with pytest.raises(ValueError, match="max_iterations"):
            ControlFile(max_iterations=0)


class TestRoundTrip:
    def test_write_then_parse(self, tmp_path):
        ctl = ControlFile(
            seqfile="x.phy",
            treefile="x.nwk",
            fix_omega=1,
            kappa=3.5,
            codon_freq=1,
            max_iterations=77,
            seed=13,
        )
        path = tmp_path / "x.ctl"
        write_ctl(ctl, path)
        again = parse_ctl(path)
        assert again.seqfile == ctl.seqfile
        assert again.fix_omega == ctl.fix_omega
        assert again.kappa == ctl.kappa
        assert again.codon_freq == ctl.codon_freq
        assert again.max_iterations == ctl.max_iterations
        assert again.seed == ctl.seed
