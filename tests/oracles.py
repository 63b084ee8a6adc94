"""Independent direct-arithmetic oracles for the samplers' full conditionals.

Everything here is written as plainly as possible (raw products, explicit
loops, no log-space tricks) so it stays independent of the package's
implementations.  Weight vectors are compared after normalization, since
Gibbs weights are only defined up to scale.
"""

import math
from collections import Counter


def normalize(ws):
    t = sum(ws)
    return [w / t for w in ws]


def assert_close_distribution(got, want, rel=1e-10):
    got = normalize(list(got))
    want = normalize(list(want))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * max(abs(w), 1e-300), (got, want)


def tv_distance(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def rising(x, n):
    out = 1.0
    for j in range(n):
        out *= x + j
    return out


def lda_joint_log(docword, z, K, V, alpha, beta):
    """Collapsed log joint p(w, z) for LDA up to assignment-independent constants."""
    M = len(docword)
    n_mk = [[0] * K for _ in range(M)]
    n_kv = [[0] * V for _ in range(K)]
    n_k = [0] * K
    for m, doc in enumerate(docword):
        for n, v in enumerate(doc):
            k = z[m][n]
            n_mk[m][k] += 1
            n_kv[k][v] += 1
            n_k[k] += 1
    ll = 0.0
    for m in range(M):
        for k in range(K):
            ll += math.lgamma(n_mk[m][k] + alpha)
        ll -= math.lgamma(len(docword[m]) + K * alpha)
    for k in range(K):
        for v in range(V):
            ll += math.lgamma(n_kv[k][v] + beta)
        ll -= math.lgamma(n_k[k] + V * beta)
    return ll


def atm_joint_log(docword, x, z, n_authors, K, V, alpha, beta):
    """Collapsed log joint p(w, x, z | authors) for the author-topic model
    (Rosen-Zvi et al., UAI 2004) up to assignment-independent constants:
    one Dirichlet-multinomial over topics per author, one over words per
    topic.  Each token's author is a uniform pick from its document's
    authors, a factor that does not depend on the assignment."""
    n_ak = [[0] * K for _ in range(n_authors)]
    n_kv = [[0] * V for _ in range(K)]
    for m, doc in enumerate(docword):
        for n, v in enumerate(doc):
            a, k = x[m][n], z[m][n]
            n_ak[a][k] += 1
            n_kv[k][v] += 1
    ll = 0.0
    for row in n_ak:
        for c in row:
            ll += math.lgamma(c + alpha)
        ll -= math.lgamma(sum(row) + K * alpha)
    for row in n_kv:
        for c in row:
            ll += math.lgamma(c + beta)
        ll -= math.lgamma(sum(row) + V * beta)
    return ll


def hdp_joint_log(docword, token_table, table_topic, V, alpha0, beta, gamma):
    """Collapsed log joint of an HDP seating (Teh, Jordan, Beal & Blei,
    JASA 2006) up to seating-independent constants: the Chinese restaurant
    franchise's prior times each topic's Dirichlet-multinomial marginal.
    Token n of document m sits at table token_table[m][n], which serves
    topic table_topic[m][t]; the labels are arbitrary, so the joint depends
    only on the partitions they make.  Each document seats its tokens by a
    Chinese restaurant process (alpha0), and the franchise gives each table
    its dish by another over every table of the corpus (gamma)."""
    m_k, n_kv = Counter(), {}
    ll = 0.0
    for doc, seats, served in zip(docword, token_table, table_topic):
        for t, k in enumerate(served):
            ll += math.log(alpha0) + math.lgamma(seats.count(t))
            m_k[k] += 1
        for n, v in enumerate(doc):
            row = n_kv.setdefault(served[seats[n]], [0] * V)
            row[v] += 1
    m_total = sum(m_k.values())
    ll -= math.log(rising(gamma, m_total))
    for k, m in m_k.items():
        ll += math.log(gamma) + math.lgamma(m)
        row = n_kv[k]
        for c in row:
            ll += math.lgamma(c + beta) - math.lgamma(beta)
        ll += math.lgamma(V * beta) - math.lgamma(sum(row) + V * beta)
    return ll


def dpmm_joint_log(docword, z, V, alpha, beta):
    """Collapsed log joint of a DPMM clustering (Neal, JCGS 2000) up to
    clustering-independent constants: the Chinese restaurant process prior
    (alpha) over the documents times each cluster's Dirichlet-multinomial
    marginal of its words (beta).  The labels z are arbitrary, so the joint
    depends only on the partition they make."""
    members = {}
    for doc, k in zip(docword, z):
        members.setdefault(k, []).append(doc)
    ll = 0.0
    for docs in members.values():
        ll += math.log(alpha) + math.lgamma(len(docs))
        n_kv = Counter(v for doc in docs for v in doc)
        for c in n_kv.values():
            ll += math.lgamma(c + beta) - math.lgamma(beta)
        ll += math.lgamma(V * beta) - math.lgamma(sum(n_kv.values()) + V * beta)
    return ll


def restricted_growth(n):
    """Every partition of n items as labels 0, 1, ... in order of first use."""
    if n == 0:
        yield ()
        return
    for head in restricted_growth(n - 1):
        for label in range(max(head, default=-1) + 2):
            yield (*head, label)


# ---------------------------------------------------------------------------
# per-equation scalar oracles; inputs are plain count arrays with the item
# under resampling already excluded
# ---------------------------------------------------------------------------

def lda_token_oracle(n_mk, n_m, n_kv_col, n_k, alpha, beta, V):
    """LDA token conditional. n_kv_col[k] is the count of the token's word."""
    K = len(n_mk)
    return [(n_mk[k] + alpha) / (n_m + K * alpha)
            * (n_kv_col[k] + beta) / (n_k[k] + V * beta)
            for k in range(K)]


def sentence_topic_oracle(n_mk, n_m, n_kv, n_k, sentence, alpha, beta, V):
    """Sentence-LDA sentence conditional, direct products (no log space)."""
    K = len(n_mk)
    counts = Counter(sentence)
    n_s = len(sentence)
    out = []
    for k in range(K):
        w = (n_mk[k] + alpha) / (n_m + K * alpha)
        num = 1.0
        for v, c in counts.items():
            num *= rising(n_kv[k][v] + beta, c)
        den = rising(n_k[k] + V * beta, n_s)
        out.append(w * num / den)
    return out


def dmm_doc_oracle(n_cluster_docs, n_kv, n_k, doc, M, alpha, beta, V):
    """DMM document conditional (with the j-1 reading of the inner product)."""
    K = len(n_cluster_docs)
    counts = Counter(doc)
    out = []
    for k in range(K):
        w = (n_cluster_docs[k] + alpha) / (M - 1 + K * alpha)
        num = 1.0
        for v, c in counts.items():
            num *= rising(n_kv[k][v] + beta, c)
        den = rising(n_k[k] + V * beta, len(doc))
        out.append(w * num / den)
    return out


def dpmm_doc_oracle(n_cluster_docs, n_kv, n_k, doc, M, alpha, beta, V):
    """DPMM combined rule: live-cluster weights plus one new-cluster weight."""
    K = len(n_cluster_docs)
    counts = Counter(doc)
    out = []
    for k in range(K):
        w = n_cluster_docs[k] / (M - 1 + alpha)
        num = 1.0
        for v, c in counts.items():
            num *= rising(n_kv[k][v] + beta, c)
        den = rising(n_k[k] + V * beta, len(doc))
        out.append(w * num / den)
    num = 1.0
    for _, c in counts.items():
        num *= rising(beta, c)
    den = rising(V * beta, len(doc))
    out.append(alpha / (M - 1 + alpha) * num / den)
    return out


def ptm_pseudo_doc_oracle(n_l, N_lk, N_l, doc_topic_counts, n_doc, M, P, K, lam, alpha):
    """PTM pseudo-document conditional for one short document."""
    out = []
    for l in range(P):
        w = (n_l[l] + lam) / (M - 1 + P * lam)
        num = 1.0
        for k, c in doc_topic_counts.items():
            num *= rising(N_lk[l][k] + alpha, c)
        den = rising(N_l[l] + K * alpha, n_doc)
        out.append(w * num / den)
    return out


def ptm_token_oracle(N_lk_row, N_l, n_kv_col, n_k, alpha, beta, K, V):
    """PTM token conditional inside pseudo-document l."""
    return [(N_lk_row[k] + alpha) / (N_l + K * alpha)
            * (n_kv_col[k] + beta) / (n_k[k] + V * beta)
            for k in range(K)]


def btm_biterm_oracle(n_b, n_kv1, n_kv2, n_k, N_B, alpha, beta, K, V, same):
    """BTM biterm conditional.  ``same`` marks a biterm of one word twice:
    its second slot sees the first, so its word factor is (c + b)(c + b + 1)."""
    s = 1 if same else 0
    return [(n_b[k] + alpha) / (N_B - 1 + K * alpha)
            * (n_kv1[k] + beta) * (n_kv2[k] + beta + s)
            / ((n_k[k] + V * beta + 1) * (n_k[k] + V * beta))
            for k in range(K)]


def atm_joint_oracle(n_ak, n_a, n_kv_col, n_k, authors, alpha, beta, K, V):
    """ATM joint author-topic conditional; rows follow the doc's author list."""
    out = []
    for a in authors:
        row = []
        for k in range(K):
            row.append((n_ak[a][k] + alpha) / (n_a[a] + K * alpha)
                       * (n_kv_col[k] + beta) / (n_k[k] + V * beta))
        out.append(row)
    return out


def linklda_word_oracle(n_kv_col, n_k, n_mk, c_mk, alpha, beta, K, V):
    return [(n_kv_col[k] + beta) / (n_k[k] + V * beta)
            * (n_mk[k] + c_mk[k] + alpha)
            for k in range(K)]


def linklda_link_oracle(c_kl_col, c_k, c_mk, n_mk, alpha, gamma, K, L):
    return [(c_kl_col[k] + gamma) / (c_k[k] + L * gamma)
            * (c_mk[k] + n_mk[k] + alpha)
            for k in range(K)]


def labeled_token_oracle(n_kv_col, n_k, n_mk, admissible, alpha, beta, K, V):
    """Labeled LDA conditional: zero outside the admissible set."""
    denom = sum(n_mk[k2] + alpha for k2 in range(K))
    return [((n_kv_col[k] + beta) / (n_k[k] + V * beta)
             * (n_mk[k] + alpha) / denom) if k in admissible else 0.0
            for k in range(K)]


def plda_token_oracle(n_mt, n_tv_col, n_t, admissible, alpha, beta, K, V):
    """PLDA conditional over global topic ids; zero outside admissible blocks."""
    return [((n_mt[t] + alpha) * (n_tv_col[t] + beta) / (n_t[t] + V * beta))
            if t in admissible else 0.0
            for t in range(K)]


def ptm_joint_log(docword, l, z, P, K, V, lam, alpha, beta):
    """Collapsed log joint p(w, z, l) for PTM up to assignment-independent
    constants: short document m joins pseudo document l[m] (Dirichlet lam),
    each pseudo document mixes topics (Dirichlet alpha) and each topic
    words (Dirichlet beta)."""
    n_l = [0] * P
    N_lk = [[0] * K for _ in range(P)]
    n_kv = [[0] * V for _ in range(K)]
    for m, doc in enumerate(docword):
        n_l[l[m]] += 1
        for n, v in enumerate(doc):
            N_lk[l[m]][z[m][n]] += 1
            n_kv[z[m][n]][v] += 1
    ll = 0.0
    for p in range(P):
        ll += math.lgamma(n_l[p] + lam)
        for k in range(K):
            ll += math.lgamma(N_lk[p][k] + alpha)
        ll -= math.lgamma(sum(N_lk[p]) + K * alpha)
    for k in range(K):
        for v in range(V):
            ll += math.lgamma(n_kv[k][v] + beta)
        ll -= math.lgamma(sum(n_kv[k]) + V * beta)
    return ll


def btm_joint_log(biterms, z, K, V, alpha, beta):
    """Collapsed log joint p(B, z) for BTM up to assignment-independent
    constants: biterm (w1, w2) takes topic z from one corpus-wide topic
    mixture (Dirichlet alpha), and both its words are drawn from that
    topic's word distribution (Dirichlet beta)."""
    n_k = [0] * K
    n_kv = [[0] * V for _ in range(K)]
    for (w1, w2), k in zip(biterms, z):
        n_k[k] += 1
        n_kv[k][w1] += 1
        n_kv[k][w2] += 1
    ll = 0.0
    for k in range(K):
        ll += math.lgamma(n_k[k] + alpha)
        for v in range(V):
            ll += math.lgamma(n_kv[k][v] + beta)
        ll -= math.lgamma(2 * n_k[k] + V * beta)
    return ll


def linklda_joint_log(docword, links, z, x, K, V, L, alpha, beta, gamma):
    """Collapsed log joint p(w, links, z, x) for Link LDA up to
    assignment-independent constants: the words and links of document m
    share one topic mixture (Dirichlet alpha), each topic draws words
    (Dirichlet beta) and links (Dirichlet gamma)."""
    ll = 0.0
    for zm, xm in zip(z, x):
        for k in range(K):
            ll += math.lgamma(zm.count(k) + xm.count(k) + alpha)
    for items, topics, size, smooth in ((docword, z, V, beta), (links, x, L, gamma)):
        n_kv = [[0] * size for _ in range(K)]
        for doc, zm in zip(items, topics):
            for v, k in zip(doc, zm):
                n_kv[k][v] += 1
        for k in range(K):
            for v in range(size):
                ll += math.lgamma(n_kv[k][v] + smooth)
            ll -= math.lgamma(sum(n_kv[k]) + size * smooth)
    return ll


def count_tables_two_passes(docword, z, K, V, rows=None, n_rows=None):
    """The count tables of per-token topics z, one token at a time, then the
    word index (word v -> {topic k: n_kv}, keys in order of first use) in a
    second pass over the tokens.  Row m of doc_topic and doc_total counts
    document m, or with ``rows`` the row rows[m][n] of each token.  Returns
    (tables by name, index)."""
    n_rows = len(docword) if rows is None else n_rows
    doc_topic = [[0] * K for _ in range(n_rows)]
    topic_word = [[0] * V for _ in range(K)]
    topic_total = [0] * K
    doc_total = [0] * n_rows
    for m, doc in enumerate(docword):
        for n, v in enumerate(doc):
            k = z[m][n]
            r = m if rows is None else rows[m][n]
            doc_topic[r][k] += 1
            topic_word[k][v] += 1
            topic_total[k] += 1
            doc_total[r] += 1
    index = [{} for _ in range(V)]
    for doc, zm in zip(docword, z):
        for v, k in zip(doc, zm):
            index[v][k] = index[v].get(k, 0) + 1
    return ({"doc_topic": doc_topic, "topic_word": topic_word, "topic_total": topic_total,
             "doc_total": doc_total}, index)
