from cli_matrix import digests


def test_one_tree_gives_the_same_digests_twice():
    # the byte-identity matrix compares two runs output by output, which shows nothing
    # unless a run on one tree repeats itself exactly
    first = digests()
    assert len(dict(first)) == len(first) >= 407
    assert digests() == first
