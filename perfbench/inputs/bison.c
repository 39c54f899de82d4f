/*
 * bison -- an LL(1) parser-table generator, after the Table 1 entry
 * (an LALR(1) generator; LL(1) exercises the same fixed-point set
 * computations at suite scale).  Reads a grammar, computes NULLABLE,
 * FIRST, and FOLLOW sets by iteration, builds the LL(1) parse table,
 * reports conflicts, and — when the grammar is conflict-free — parses
 * a test sentence with the table, printing the derivation length.
 *
 * Input: one production per line, "A -> a B c" (nonterminals are
 * single uppercase letters, terminals single lowercase letters, "@"
 * is epsilon; alternatives on separate lines).  The start symbol is
 * the left side of the first production.  After a line "==", each
 * following line is a sentence to parse.
 */

#define MAX_PRODUCTIONS 48
#define MAX_RHS 8
#define MAX_LINE 128
#define NONTERMS 26
#define TERMS 27 /* 'a'..'z' plus end-marker '$' */
#define END_MARK 26
#define MAX_STACK 256

int prod_lhs[MAX_PRODUCTIONS];
int prod_rhs[MAX_PRODUCTIONS][MAX_RHS]; /* >=100: terminal+100 */
int prod_len[MAX_PRODUCTIONS];
int production_count;

int nullable[NONTERMS];
int first_set[NONTERMS][TERMS];
int follow_set[NONTERMS][TERMS];
int parse_table[NONTERMS][TERMS]; /* production index or -1 */
int conflicts;
int start_symbol;
int nonterm_seen[NONTERMS];

void die(char *msg)
{
    puts(msg);
    exit(1);
}

int read_line(char *buffer)
{
    int c, length;
    length = 0;
    c = getchar();
    if (c == -1)
        return -1;
    while (c != -1 && c != '\n') {
        if (length < MAX_LINE - 1)
            buffer[length++] = (char)c;
        c = getchar();
    }
    buffer[length] = 0;
    return length;
}

int is_nonterminal(int symbol)
{
    return symbol < 100;
}

void parse_production(char *line)
{
    int i = 0;
    int lhs;
    while (line[i] == ' ')
        i++;
    if (line[i] < 'A' || line[i] > 'Z')
        die("production must start with a nonterminal");
    lhs = line[i] - 'A';
    nonterm_seen[lhs] = 1;
    i++;
    while (line[i] == ' ')
        i++;
    if (line[i] != '-' || line[i + 1] != '>')
        die("expected ->");
    i += 2;
    if (production_count >= MAX_PRODUCTIONS)
        die("too many productions");
    prod_lhs[production_count] = lhs;
    prod_len[production_count] = 0;
    for (;;) {
        while (line[i] == ' ')
            i++;
        if (line[i] == 0)
            break;
        if (line[i] == '@') {
            i++;
            continue; /* epsilon: contributes no symbols */
        }
        if (prod_len[production_count] >= MAX_RHS)
            die("production too long");
        if (line[i] >= 'A' && line[i] <= 'Z') {
            nonterm_seen[line[i] - 'A'] = 1;
            prod_rhs[production_count][prod_len[production_count]++] =
                line[i] - 'A';
        } else if (line[i] >= 'a' && line[i] <= 'z') {
            prod_rhs[production_count][prod_len[production_count]++] =
                100 + (line[i] - 'a');
        } else {
            die("bad symbol in production");
        }
        i++;
    }
    if (production_count == 0)
        start_symbol = lhs;
    production_count++;
}

void compute_nullable(void)
{
    int changed = 1;
    while (changed) {
        int p;
        changed = 0;
        for (p = 0; p < production_count; p++) {
            int k, all_nullable;
            if (nullable[prod_lhs[p]])
                continue;
            all_nullable = 1;
            for (k = 0; k < prod_len[p]; k++) {
                int symbol = prod_rhs[p][k];
                if (!is_nonterminal(symbol) || !nullable[symbol]) {
                    all_nullable = 0;
                    break;
                }
            }
            if (all_nullable) {
                nullable[prod_lhs[p]] = 1;
                changed = 1;
            }
        }
    }
}

int add_to_set(int set[NONTERMS][TERMS], int nonterm, int term)
{
    if (set[nonterm][term])
        return 0;
    set[nonterm][term] = 1;
    return 1;
}

void compute_first(void)
{
    int changed = 1;
    while (changed) {
        int p;
        changed = 0;
        for (p = 0; p < production_count; p++) {
            int k;
            for (k = 0; k < prod_len[p]; k++) {
                int symbol = prod_rhs[p][k];
                if (!is_nonterminal(symbol)) {
                    changed |= add_to_set(first_set, prod_lhs[p],
                                          symbol - 100);
                    break;
                }
                {
                    int t;
                    for (t = 0; t < TERMS; t++)
                        if (first_set[symbol][t])
                            changed |= add_to_set(first_set,
                                                  prod_lhs[p], t);
                }
                if (!nullable[symbol])
                    break;
            }
        }
    }
}

void compute_follow(void)
{
    int changed = 1;
    follow_set[start_symbol][END_MARK] = 1;
    while (changed) {
        int p;
        changed = 0;
        for (p = 0; p < production_count; p++) {
            int k;
            for (k = 0; k < prod_len[p]; k++) {
                int symbol = prod_rhs[p][k];
                int j, tail_nullable;
                if (!is_nonterminal(symbol))
                    continue;
                tail_nullable = 1;
                for (j = k + 1; j < prod_len[p]; j++) {
                    int next = prod_rhs[p][j];
                    if (!is_nonterminal(next)) {
                        changed |= add_to_set(follow_set, symbol,
                                              next - 100);
                        tail_nullable = 0;
                        break;
                    }
                    {
                        int t;
                        for (t = 0; t < TERMS; t++)
                            if (first_set[next][t])
                                changed |= add_to_set(follow_set,
                                                      symbol, t);
                    }
                    if (!nullable[next]) {
                        tail_nullable = 0;
                        break;
                    }
                }
                if (tail_nullable) {
                    int t;
                    for (t = 0; t < TERMS; t++)
                        if (follow_set[prod_lhs[p]][t])
                            changed |= add_to_set(follow_set, symbol, t);
                }
            }
        }
    }
}

/* FIRST of one production's right side, including nullability. */
int rhs_first(int p, int terms_out[TERMS])
{
    int k, t;
    for (t = 0; t < TERMS; t++)
        terms_out[t] = 0;
    for (k = 0; k < prod_len[p]; k++) {
        int symbol = prod_rhs[p][k];
        if (!is_nonterminal(symbol)) {
            terms_out[symbol - 100] = 1;
            return 0;
        }
        for (t = 0; t < TERMS; t++)
            if (first_set[symbol][t])
                terms_out[t] = 1;
        if (!nullable[symbol])
            return 0;
    }
    return 1; /* the whole right side can derive epsilon */
}

void build_table(void)
{
    int a, t, p;
    for (a = 0; a < NONTERMS; a++)
        for (t = 0; t < TERMS; t++)
            parse_table[a][t] = -1;
    conflicts = 0;
    for (p = 0; p < production_count; p++) {
        int terms[TERMS];
        int lhs = prod_lhs[p];
        int derives_epsilon = rhs_first(p, terms);
        for (t = 0; t < TERMS; t++) {
            if (!terms[t])
                continue;
            if (parse_table[lhs][t] != -1 &&
                parse_table[lhs][t] != p)
                conflicts++;
            parse_table[lhs][t] = p;
        }
        if (derives_epsilon) {
            for (t = 0; t < TERMS; t++) {
                if (!follow_set[lhs][t])
                    continue;
                if (parse_table[lhs][t] != -1 &&
                    parse_table[lhs][t] != p)
                    conflicts++;
                parse_table[lhs][t] = p;
            }
        }
    }
}

int parse_sentence(char *sentence)
{
    int stack[MAX_STACK];
    int sp = 0;
    int pos = 0;
    int steps = 0;
    stack[sp++] = start_symbol;
    for (;;) {
        int lookahead;
        steps++;
        if (steps > 4000)
            return -1;
        while (sentence[pos] == ' ')
            pos++;
        lookahead = sentence[pos] == 0 ? END_MARK
                                       : sentence[pos] - 'a';
        if (lookahead < 0 || lookahead >= TERMS)
            return -1;
        if (sp == 0)
            return sentence[pos] == 0 ? steps : -1;
        {
            int top = stack[--sp];
            if (!is_nonterminal(top)) {
                if (top - 100 != lookahead)
                    return -1;
                pos++;
            } else {
                int p = parse_table[top][lookahead];
                int k;
                if (p < 0)
                    return -1;
                for (k = prod_len[p] - 1; k >= 0; k--) {
                    if (sp >= MAX_STACK)
                        return -1;
                    stack[sp++] = prod_rhs[p][k];
                }
            }
        }
    }
}

void print_sets(void)
{
    int a, t;
    for (a = 0; a < NONTERMS; a++) {
        if (!nonterm_seen[a])
            continue;
        printf("%c:%s first={", 'A' + a, nullable[a] ? " nullable," : "");
        for (t = 0; t < TERMS; t++)
            if (first_set[a][t])
                printf("%c", t == END_MARK ? '$' : 'a' + t);
        printf("} follow={");
        for (t = 0; t < TERMS; t++)
            if (follow_set[a][t])
                printf("%c", t == END_MARK ? '$' : 'a' + t);
        printf("}\n");
    }
}

int main(void)
{
    char line[MAX_LINE];
    int in_grammar = 1;
    int accepted = 0, rejected = 0;
    while (read_line(line) != -1) {
        if (in_grammar) {
            if (strcmp(line, "==") == 0) {
                if (production_count == 0)
                    die("no productions");
                compute_nullable();
                compute_first();
                compute_follow();
                build_table();
                print_sets();
                printf("productions=%d conflicts=%d\n",
                       production_count, conflicts);
                in_grammar = 0;
            } else if (line[0] != 0 && line[0] != '#') {
                parse_production(line);
            }
        } else if (line[0] != 0) {
            int steps = conflicts == 0 ? parse_sentence(line) : -2;
            if (steps >= 0) {
                accepted++;
                printf("accept \"%s\" in %d steps\n", line, steps);
            } else {
                rejected++;
                printf("reject \"%s\"\n", line);
            }
        }
    }
    if (in_grammar)
        die("missing == separator");
    printf("accepted=%d rejected=%d\n", accepted, rejected);
    return 0;
}
