"""Closed-form counts the partition tests compare the package against."""


def count_partitions(M, r):
    """Number of partitions of an M-set into at most r nonempty blocks, from
    Stirling numbers of the second kind S[m][j]."""
    S = [[0] * (r + 1) for _ in range(M + 1)]
    S[0][0] = 1
    for m in range(1, M + 1):
        for j in range(1, r + 1):
            S[m][j] = j * S[m - 1][j] + S[m - 1][j - 1]
    return sum(S[M][j] for j in range(1, r + 1))
