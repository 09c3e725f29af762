from generate import ACCEPTED, DEPTHS, scaling_scripts


def test_same_seed_gives_byte_identical_scripts():
    first = scaling_scripts(7)
    second = scaling_scripts(7)
    assert [s.text.encode() for s in first] == [s.text.encode() for s in second]
    assert [s.expected for s in first] == [s.expected for s in second]


def test_seed_picks_shapes_not_sizes():
    a, b = scaling_scripts(1), scaling_scripts(2)
    assert [s.text for s in a] != [s.text for s in b]
    depth_a = [s for s in a if s.family == "depth"]
    depth_b = [s for s in b if s.family == "depth"]
    assert [s.size for s in depth_a] == [s.size for s in depth_b] == list(DEPTHS)
    assert [len(s.text) for s in depth_a] == [len(s.text) for s in depth_b]


def test_every_family_present_and_answers_known():
    scripts = scaling_scripts(3)
    assert {s.family for s in scripts} == {"depth", "width", "let", "susp", "reject"}
    for s in scripts:
        assert s.expected
        *prefix, (_, last) = s.expected
        assert all(v == ACCEPTED for _, v in prefix)
        assert (last == ACCEPTED) == (s.family != "reject")


def test_depth_ladder_spans_eight_times():
    assert max(DEPTHS) >= 8 * min(DEPTHS)
